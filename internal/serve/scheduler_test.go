package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPreemptResumeBitIdentical is the acceptance contract of elastic
// scheduling: a low-priority anneal that gets preempted by a
// high-priority job (checkpointed off the workers, later resumed) must
// return a byte-identical result JSON — same best graph, same SA
// statistics — as the same job run uninterrupted on a second server.
func TestPreemptResumeBitIdentical(t *testing.T) {
	gtxt := graphText(t, 64, 20, 7, 9)
	anneal := JobSpec{
		Type: TypeAnneal, Graph: gtxt,
		Iterations: 60_000, Seed: 4, EvalMode: "incremental", Priority: 0,
	}

	// Reference: uninterrupted run.
	ref := testServer(t, Config{Workers: 1})
	rst, err := ref.Submit(anneal)
	if err != nil {
		t.Fatal(err)
	}
	rst = waitDone(t, ref, rst.ID)
	if rst.State != StateDone {
		t.Fatalf("reference run failed: %q", rst.Error)
	}

	// Contended: budget 1, so the high-priority eval cannot fit while
	// the anneal runs — the anneal must be checkpointed off.
	s := testServer(t, Config{Workers: 1})
	ast, err := s.Submit(anneal)
	if err != nil {
		t.Fatal(err)
	}
	// Let the anneal actually start before contending.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := s.sched.Get(ast.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anneal never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	est, err := s.Submit(JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: 1, Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, est.ID); st.State != StateDone {
		t.Fatalf("preemptor failed: %q", st.Error)
	}
	ast = waitDone(t, s, ast.ID)
	if ast.State != StateDone {
		t.Fatalf("preempted anneal failed: %q", ast.Error)
	}
	if ast.Preemptions < 1 {
		t.Fatal("the anneal was never preempted; the test exercised nothing")
	}
	if !bytes.Equal(ast.Result, rst.Result) {
		t.Fatalf("preempted-then-resumed result differs from uninterrupted run:\n%s\nvs\n%s",
			ast.Result, rst.Result)
	}

	// The lifecycle shows the round trip: running -> preempted ->
	// running (resume) -> done.
	events, ok := s.sched.Events(ast.ID)
	if !ok {
		t.Fatal("no event log")
	}
	kinds := map[string]int{}
	for _, e := range events.Snapshot() {
		kinds[e.Kind]++
	}
	if kinds[KindJobPreempted] < 1 || kinds[KindJobRunning] < 2 {
		t.Fatalf("lifecycle missing the preemption round trip: %v", kinds)
	}
}

// TestPriorityOrderAndFIFO pins queue order: strictly by priority, FIFO
// within a level.
func TestPriorityOrderAndFIFO(t *testing.T) {
	s := testServer(t, Config{Workers: 1})

	// Occupy the only worker so everything below queues up. The blocker
	// outranks everything so no later submission preempts it, and the
	// queue order is observed cleanly when it finishes.
	blocker, err := s.Submit(JobSpec{Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, 1),
		Iterations: 400_000, Seed: 1, EvalMode: "incremental", Priority: 100})
	if err != nil {
		t.Fatal(err)
	}

	lo1, _ := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 1, Priority: 1})
	lo2, _ := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 2, Priority: 1})
	hi, _ := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 3, Priority: 5})

	// The blocker must still hold the worker, or the test observed
	// nothing: all three submissions have to be queued behind it.
	for _, id := range []string{lo1.ID, lo2.ID, hi.ID} {
		if got, _ := s.sched.Get(id); got.State != StateQueued {
			t.Fatalf("job %s is %s; the blocker finished before the queue formed (make it longer)",
				id, got.State)
		}
	}

	waitDone(t, s, blocker.ID)
	var at [3]time.Time
	for i, id := range []string{hi.ID, lo1.ID, lo2.ID} {
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("%s failed: %q", id, st.Error)
		}
		at[i] = *st.Started
	}
	// Budget 1 runs them one at a time; start times order as
	// high-priority first, then FIFO within the low-priority level.
	if !at[0].Before(at[1]) || !at[1].Before(at[2]) {
		t.Fatalf("start order hi=%v lo1=%v lo2=%v violates priority/FIFO", at[0], at[1], at[2])
	}
}

// TestWorkerBudgetShared pins that concurrent jobs share one budget:
// total granted workers never exceeds it.
func TestWorkerBudgetShared(t *testing.T) {
	s := testServer(t, Config{Workers: 3})
	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		st, err := s.Submit(JobSpec{
			Type: TypeSweep, N: 48, M: 16, R: 6, GraphSeed: seed,
			Fractions: []float64{0.05}, Trials: 3, Seed: seed, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// While anything runs, busy <= budget.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range ids {
			waitDone(t, s, id)
		}
	}()
	for {
		select {
		case <-done:
			if busy := s.met.workersBusy.Value(); busy != 0 {
				t.Fatalf("workers still busy after all jobs done: %v", busy)
			}
			return
		default:
			s.sched.mu.Lock()
			busy := s.sched.budget - s.sched.free
			s.sched.mu.Unlock()
			if busy > 3 {
				t.Fatalf("budget exceeded: %d busy with budget 3", busy)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestCacheLRUEviction pins the bounded-memory contract.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", []byte("3")) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("LRU evicted the recently-used entry")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

// TestEventLogOverrunEviction pins the ring-buffer contract: appends
// never block or fail when a reader falls behind — the oldest events are
// trimmed, and the lagging reader is told exactly how many it lost.
func TestEventLogOverrunEviction(t *testing.T) {
	l := newEventLogCap(64)
	for i := 0; i < 5000; i++ {
		l.Append(obs.Event{Kind: "x", T: float64(i)})
	}
	if got := l.Len(); got != 5001 { // header + 5000, counting trimmed ones
		t.Fatalf("Len() = %d, want 5001", got)
	}
	if got := len(l.Snapshot()); got != 64 {
		t.Fatalf("buffered %d events, want the 64-cap window", got)
	}

	// A reader that never consumed anything resumes at the window start
	// and learns the exact number of trimmed events.
	batch, next, dropped, closed, _ := l.ReadFrom(0)
	if dropped != 5001-64 {
		t.Fatalf("dropped = %d, want %d", dropped, 5001-64)
	}
	if len(batch) != 64 || next != 5001 || closed {
		t.Fatalf("batch=%d next=%d closed=%v", len(batch), next, closed)
	}
	// The window is the most recent suffix, in order.
	if last := decodeLine(t, batch[len(batch)-1]); last.T != 4999 {
		t.Fatalf("window does not end at the newest event: T=%v", last.T)
	}

	// A caught-up reader sees nothing new and no drop; after Close it
	// drains the final event and observes the end of stream.
	l.Close(obs.Event{Kind: "done"})
	batch, next, dropped, closed, _ = l.ReadFrom(next)
	if dropped != 0 || !closed || len(batch) != 1 || decodeLine(t, batch[0]).Kind != "done" {
		t.Fatalf("post-close read: batch=%q dropped=%d closed=%v", batch, dropped, closed)
	}
	if batch, _, _, closed, _ = l.ReadFrom(next); len(batch) != 0 || !closed {
		t.Fatalf("stream did not terminate: batch=%d closed=%v", len(batch), closed)
	}
}

func decodeLine(t *testing.T, line []byte) obs.Event {
	t.Helper()
	var e obs.Event
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatalf("stored line %q: %v", line, err)
	}
	return e
}

// TestFailedJobReportsError pins the failure path: an anneal of a
// disconnected inline graph passes admission (parsing checks structure,
// not connectivity), fails at run time with a useful error and is not
// cached.
func TestFailedJobReportsError(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	disconnected := "hsgraph 4 4 4\nhost 0 0\nhost 1 1\nhost 2 2\nhost 3 3\nlink 0 1\nlink 2 3\n"
	spec := JobSpec{Type: TypeAnneal, Graph: disconnected, Iterations: 100}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("want failed state with error, got %s %q", st.State, st.Error)
	}
	// Resubmission runs again (failures are not cached).
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("failure was cached")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st2, _ = s.Wait(ctx, st2.ID); st2.State != StateFailed {
		t.Fatalf("second run state %s", st2.State)
	}
}
