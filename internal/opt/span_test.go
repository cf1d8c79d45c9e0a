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

// TestSampleCarriesEvalStats is the size rule seen from the annealer:
// above hsgraph.PreferIncremental's threshold, generic and symmetric runs
// score through the cache and their samples and Result carry its
// counters; below it the exact path reports a zero snapshot.
func TestSampleCarriesEvalStats(t *testing.T) {
	for _, tc := range []struct {
		large bool
		sym   int
	}{{true, 0}, {true, 4}, {false, 0}, {false, 4}} {
		var last AnnealSample
		_, res, err := Anneal(pathStart(t, tc.large, tc.sym, 7), Options{
			Iterations:  1000,
			ReportEvery: 500,
			Seed:        7,
			Symmetry:    tc.sym,
			Observer:    ObserverFunc(func(s AnnealSample) { last = s }),
		})
		if err != nil {
			t.Fatal(err)
		}
		if last.Eval != res.Eval {
			t.Errorf("large=%v sym=%d: final sample %+v, Result %+v", tc.large, tc.sym, last.Eval, res.Eval)
		}
		c := res.Eval.Inc
		if tc.large && (c.Peeks == 0 || c.Syncs == 0 || c.SweptSources == 0) {
			t.Errorf("large=%v sym=%d: the cache path reported no cache work: %+v", tc.large, tc.sym, c)
		}
		if !tc.large && res.Eval != (EvalStats{}) {
			t.Errorf("large=%v sym=%d: the exact path reported cache work: %+v", tc.large, tc.sym, c)
		}
	}
}
