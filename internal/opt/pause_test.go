package opt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// episodes stands in for orpd's run episodes: each pause ends the
// current "run" root and the hook hands the engine a new one.
type episodes struct {
	tr  *obs.Tracer
	mu  sync.Mutex
	cur *obs.Span
	n   int // pause calls
}

func (e *episodes) pause(stop *atomic.Bool) func() (*obs.Span, bool) {
	return func() (*obs.Span, bool) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.n++
		e.cur.End()
		e.cur = e.tr.Root("run")
		stop.Store(false)
		return e.cur, true
	}
}

// requireNested asserts that every span lies within its parent's
// interval: no stage span straddles a pause.
func requireNested(t *testing.T, n *obs.SpanNode) {
	t.Helper()
	const eps = 1e-6
	for _, c := range n.Children {
		if c.Start < n.Start-eps || c.End() > n.End()+eps {
			t.Errorf("%s [%.6f, %.6f] escapes its parent %s [%.6f, %.6f]",
				c.Name, c.Start, c.End(), n.Name, n.Start, n.End())
		}
		requireNested(t, c)
	}
}

// TestPauseResumeBitIdentical: an anneal whose Pause hook answers
// "continue" at arbitrary iterations is the run that was never paused —
// best graph and every Result field — and each episode holds its own
// anneal.loop span: the first ends "paused" at the pause iteration, the
// next starts there under the span the hook returned.
func TestPauseResumeBitIdentical(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	wantG, wantRes, err := Anneal(start, ckptBaseOptions())
	if err != nil {
		t.Fatal(err)
	}

	tr, events := collectSpans("pause")
	ep := &episodes{tr: tr, cur: tr.Root("run")}
	var stop atomic.Bool
	o := ckptBaseOptions()
	o.Workers = 2
	o.Span = ep.cur
	o.Interrupt = &stop
	o.Pause = ep.pause(&stop)
	o.OnProgress = func(iter int, _, _ int64) {
		if iter == 137 || iter == 517 {
			stop.Store(true)
		}
	}
	gotG, gotRes, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	ep.cur.End()
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
	if ep.n != 2 {
		t.Fatalf("Pause called %d times, want 2", ep.n)
	}

	roots := obs.BuildSpanTrees(events())
	if len(roots) != 3 {
		t.Fatalf("%d run episodes, want 3", len(roots))
	}
	wantLoops := []struct {
		from, to float64
		outcome  string
	}{{0, 137, "paused"}, {137, 517, "paused"}, {517, 800, "done"}}
	for i, r := range roots {
		requireNested(t, r)
		var loops []*obs.SpanNode
		for _, c := range r.Children {
			if c.Name == "anneal.loop" {
				loops = append(loops, c)
			}
		}
		if len(loops) != 1 {
			t.Fatalf("episode %d has %d anneal.loop spans, want 1", i, len(loops))
		}
		w, l := wantLoops[i], loops[0]
		if l.F["start-iter"] != w.from || l.F["iter"] != w.to || l.S["outcome"] != w.outcome {
			t.Errorf("episode %d loop: start-iter %v iter %v outcome %q, want %v %v %q",
				i, l.F["start-iter"], l.F["iter"], l.S["outcome"], w.from, w.to, w.outcome)
		}
	}
}

// TestPauseStopUnwinds: a Pause hook that answers "stop" ends the run
// as an interrupt without a hook does, and writes no snapshot when no
// CheckpointPath is set.
func TestPauseStopUnwinds(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	var stop atomic.Bool
	o := ckptBaseOptions()
	o.Interrupt = &stop
	o.Pause = func() (*obs.Span, bool) { return nil, false }
	o.OnProgress = func(iter int, _, _ int64) {
		if iter == 300 {
			stop.Store(true)
		}
	}
	g, res, err := Anneal(start, o)
	if !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if g == nil || res.Iterations != 300 {
		t.Fatalf("stopped run: graph %v, %d iterations, want the best so far at 300", g != nil, res.Iterations)
	}
}

// TestParallelAnnealPauseOnce: with two restarts, the caller's Pause is
// called once per interrupt, after both restarts reached it (each ended
// its anneal.restart span "paused"), and the continued run's winner is
// bit-identical to the uninterrupted one.
func TestParallelAnnealPauseOnce(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 13)
	const restarts = 2
	base := ckptBaseOptions()
	base.Iterations = 600
	wantG, wantRes, err := ParallelAnneal(start, base, restarts)
	if err != nil {
		t.Fatal(err)
	}

	tr, events := collectSpans("pause")
	ep := &episodes{tr: tr, cur: tr.Root("run")}
	var stop, fired atomic.Bool
	o := base
	o.Span = ep.cur
	o.Interrupt = &stop
	o.Pause = ep.pause(&stop)
	o.Observer = ObserverFunc(func(s AnnealSample) {
		if s.Iter >= 150 && !fired.Swap(true) {
			stop.Store(true)
		}
	})
	gotG, gotRes, err := ParallelAnneal(start, o, restarts)
	if err != nil {
		t.Fatal(err)
	}
	ep.cur.End()
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
	if ep.n != 1 {
		t.Fatalf("Pause called %d times, want once", ep.n)
	}

	roots := obs.BuildSpanTrees(events())
	if len(roots) != 2 {
		t.Fatalf("%d run episodes, want 2", len(roots))
	}
	for i, r := range roots {
		requireNested(t, r)
		outcome := map[string]int{}
		for _, c := range r.Children {
			if c.Name == "anneal.restart" {
				outcome[c.S["outcome"]]++
			}
		}
		want := []string{"paused", "done"}[i]
		if len(outcome) != 1 || outcome[want] != restarts {
			t.Errorf("episode %d restart outcomes %v, want %d %q", i, outcome, restarts, want)
		}
	}
}
