package opt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

func collectSpans(id string) (*obs.Tracer, func() []obs.Event) {
	var mu sync.Mutex
	var events []obs.Event
	tr := obs.NewTracer(id, time.Now(), func(e obs.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	return tr, func() []obs.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Event(nil), events...)
	}
}

func TestAnnealStageSpans(t *testing.T) {
	start := observerStart(t)
	tr, drain := collectSpans("run-1")
	root := tr.Root("solve")
	if _, _, err := Anneal(start, Options{Iterations: 400, Seed: 3, Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	roots := obs.BuildSpanTrees(drain())
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	names := map[string]*obs.SpanNode{}
	for _, c := range roots[0].Children {
		names[c.Name] = c
	}
	for _, want := range []string{"anneal.init", "anneal.loop", "anneal.final-eval"} {
		if names[want] == nil {
			t.Fatalf("missing stage span %q, have %v", want, roots[0].Children)
		}
	}
	loop := names["anneal.loop"]
	if loop.S["outcome"] != "done" {
		t.Fatalf("loop outcome %q, want done", loop.S["outcome"])
	}
	if loop.F["iter"] != 400 {
		t.Fatalf("loop iter %v, want 400", loop.F["iter"])
	}
}

func TestAnnealInterruptSpanOutcome(t *testing.T) {
	start := observerStart(t)
	tr, drain := collectSpans("run-int")
	root := tr.Root("solve")
	var stop atomic.Bool
	stop.Store(true) // interrupt fires on the first durability check
	_, _, err := Anneal(start, Options{
		Iterations: 5000,
		Seed:       3,
		Span:       root,
		Interrupt:  &stop,
	})
	if !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	root.End()
	roots := obs.BuildSpanTrees(drain())
	var loop *obs.SpanNode
	for _, c := range roots[0].Children {
		if c.Name == "anneal.loop" {
			loop = c
		}
	}
	if loop == nil || loop.S["outcome"] != "interrupted" {
		t.Fatalf("interrupted run's loop span: %+v", loop)
	}
}

func TestParallelAnnealRestartSpans(t *testing.T) {
	start := observerStart(t)
	tr, drain := collectSpans("run-par")
	root := tr.Root("solve")
	if _, _, err := ParallelAnneal(start, Options{
		Iterations: 300, Seed: 5, Workers: 1, Span: root,
	}, 3); err != nil {
		t.Fatal(err)
	}
	root.End()
	roots := obs.BuildSpanTrees(drain())
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	restarts := map[float64]bool{}
	for _, c := range roots[0].Children {
		if c.Name != "anneal.restart" {
			t.Fatalf("unexpected child %q", c.Name)
		}
		if c.S["outcome"] != "done" {
			t.Fatalf("restart outcome %q", c.S["outcome"])
		}
		restarts[c.F["restart"]] = true
		// Every restart nests the full stage sequence.
		var loop bool
		for _, cc := range c.Children {
			loop = loop || cc.Name == "anneal.loop"
		}
		if !loop {
			t.Fatalf("restart without a loop span: %+v", c.Children)
		}
	}
	if len(restarts) != 3 {
		t.Fatalf("restart indices %v, want 3 distinct", restarts)
	}
}

// TestSpanPathBoundedAllocs pins the span layer's cost model: stage spans
// allocate per stage, never per iteration. The traced 800-iteration run
// may allocate a fixed handful more than the untraced one (a few spans,
// their attribute maps and emitted events), but anything growing with the
// iteration count would blow far past the bound.
func TestSpanPathBoundedAllocs(t *testing.T) {
	start := observerStart(t)
	run := func(span *obs.Span) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Anneal(start, Options{
				Iterations: 800,
				Seed:       11,
				Span:       span,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(nil)
	tr := obs.NewTracer("alloc", time.Now(), func(obs.Event) {})
	root := tr.Root("solve")
	defer root.End()
	traced := run(root)
	if traced-base > 100 {
		t.Errorf("span path allocates per iteration: nil=%v traced=%v", base, traced)
	}
}

// TestSampleCarriesEvalStats: samples of a cache-backed run carry the
// incremental cache's counters; exact mode carries a zero snapshot.
func TestSampleCarriesEvalStats(t *testing.T) {
	start := observerStart(t)
	var inc AnnealSample
	if _, _, err := Anneal(start, Options{
		Iterations:  2000,
		ReportEvery: 500,
		Seed:        7,
		Eval:        EvalIncremental,
		Observer:    ObserverFunc(func(s AnnealSample) { inc = s }),
	}); err != nil {
		t.Fatal(err)
	}
	if c := inc.Eval.Inc; c.Peeks == 0 || c.Syncs == 0 || c.SweptSources == 0 {
		t.Errorf("incremental mode reported no cache work: %+v", c)
	}

	var exact AnnealSample
	if _, _, err := Anneal(start, Options{
		Iterations:  500,
		ReportEvery: 500,
		Seed:        7,
		Observer:    ObserverFunc(func(s AnnealSample) { exact = s }),
	}); err != nil {
		t.Fatal(err)
	}
	if exact.Eval != (EvalStats{}) {
		t.Errorf("exact mode leaked eval stats: %+v", exact.Eval)
	}
}
