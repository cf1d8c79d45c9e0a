package fault

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// TestSweepPauseResume: a sweep whose Pause hook answers "continue"
// after its trial workers drained runs every remaining trial exactly
// once and returns the points of the sweep that was never paused. Each
// episode holds its own sweep.trials span: the first ends "paused", and
// the next opens under the span the hook returned, with the aggregate.
func TestSweepPauseResume(t *testing.T) {
	g := sweepTestGraph(t)
	want, err := Sweep(g, sweepTestOptions())
	if err != nil {
		t.Fatal(err)
	}

	var events []obs.Event
	tr := obs.NewTracer("sweep", time.Now(), func(e obs.Event) { events = append(events, e) })
	cur := tr.Root("run")
	var stop atomic.Bool
	pauses, trials := 0, 0
	o := sweepTestOptions()
	o.Span = cur
	o.Interrupt = &stop
	o.OnTrial = func(p TrialProgress) {
		trials++
		if p.Done == 7 {
			stop.Store(true)
		}
	}
	o.Pause = func() (*obs.Span, bool) {
		pauses++
		cur.End()
		cur = tr.Root("run")
		stop.Store(false)
		return cur, true
	}
	got, err := Sweep(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cur.End()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("paused sweep diverged:\nwant %+v\ngot  %+v", want, got)
	}
	total := len(o.Fractions) * o.Trials
	if pauses != 1 || trials != total {
		t.Fatalf("%d pauses and %d trials, want 1 and %d", pauses, trials, total)
	}

	roots := obs.BuildSpanTrees(events)
	if len(roots) != 2 {
		t.Fatalf("%d run episodes, want 2", len(roots))
	}
	for i, outcome := range []string{"paused", "done"} {
		var names []string
		for _, c := range roots[i].Children {
			names = append(names, c.Name)
			if c.Name == "sweep.trials" && c.S["outcome"] != outcome {
				t.Errorf("episode %d: sweep.trials outcome %q, want %q", i, c.S["outcome"], outcome)
			}
			if c.Start < roots[i].Start || c.End() > roots[i].End()+1e-6 {
				t.Errorf("episode %d: %s escapes its run episode", i, c.Name)
			}
		}
		if i == 1 && !reflect.DeepEqual(names, []string{"sweep.trials", "sweep.aggregate"}) {
			t.Errorf("resumed episode stages %v", names)
		}
	}
}

// TestSweepPauseStop: a Pause hook that answers "stop" ends the sweep
// with ckpt.ErrInterrupted, as an interrupt without a hook does.
func TestSweepPauseStop(t *testing.T) {
	var stop atomic.Bool
	o := sweepTestOptions()
	o.Interrupt = &stop
	o.OnTrial = func(p TrialProgress) {
		if p.Done == 3 {
			stop.Store(true)
		}
	}
	o.Pause = func() (*obs.Span, bool) { return nil, false }
	if _, err := Sweep(sweepTestGraph(t), o); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}
