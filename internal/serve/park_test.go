package serve

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// waitState polls until job id reaches state.
func waitState(t *testing.T, s *Server, id, state string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := s.sched.Get(id)
		if got.State == state {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %s)", id, state, got.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// uninterrupted runs spec alone on a fresh 1-worker server: the result
// every preempted run of it must reproduce byte for byte.
func uninterrupted(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	return submitDone(t, testServer(t, Config{Workers: 1}), spec).Result
}

// watchBudget fails the test if the granted workers ever exceed the
// budget while it runs; call the returned func to stop watching.
func watchBudget(t *testing.T, s *Server) func() {
	t.Helper()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			s.sched.mu.Lock()
			busy, budget := s.sched.budget-s.sched.free, s.sched.budget
			s.sched.mu.Unlock()
			if busy > budget || busy < 0 {
				t.Errorf("budget oversubscribed: %d busy with budget %d", busy, budget)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() { stop.Store(true); <-done }
}

// engineGoroutines counts the goroutines inside a job's engine
// goroutine (scheduler.run), parked ones included.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("serve.(*scheduler).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// preemptedEqualsUninterrupted starts spec at priority 0 on a 1-worker
// server, preempts it with a priority-1 eval once it runs, and requires
// its result to equal the uninterrupted run's byte for byte.
func preemptedEqualsUninterrupted(t *testing.T, spec JobSpec) {
	t.Helper()
	want := uninterrupted(t, spec)
	s := testServer(t, Config{Workers: 1})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	submitDone(t, s, JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: 1, Priority: 1})
	got := waitDone(t, s, st.ID)
	if got.State != StateDone {
		t.Fatalf("preempted job failed: %q", got.Error)
	}
	if got.Preemptions < 1 {
		t.Fatal("the job was never preempted; the test exercised nothing")
	}
	if !bytes.Equal(got.Result, want) {
		t.Fatalf("parked-then-resumed result differs from the uninterrupted run:\n%s\nvs\n%s", got.Result, want)
	}
}

// TestPreemptMultiRestartAnneal: a 2-restart anneal parks both restarts
// (ParallelAnneal calls the hook once both reached it) and resumes them
// in place, bit-identically.
func TestPreemptMultiRestartAnneal(t *testing.T) {
	preemptedEqualsUninterrupted(t, JobSpec{
		Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, 9),
		Iterations: 100_000, Restarts: 2, Seed: 6,
	})
}

// TestPreemptSweep: a sweep parks once its trial workers drained and
// resumes the remaining trials in place, bit-identically.
func TestPreemptSweep(t *testing.T) {
	preemptedEqualsUninterrupted(t, JobSpec{
		Type: TypeSweep, N: 512, M: 100, R: 12, GraphSeed: 3,
		Fractions: []float64{0.05, 0.1, 0.2}, Trials: 400, Seed: 2,
	})
}

// TestNestedPreemption: on a 1-worker budget a p0 anneal is parked by
// a p1 anneal, which is parked by a p2 anneal. The budget is never
// oversubscribed, all three finish, and each result equals its
// uninterrupted run's. The p1 job is a design problem, so its hook
// reaches the annealer through core.Solve.
func TestNestedPreemption(t *testing.T) {
	specs := []JobSpec{
		{Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, 9), Iterations: 100_000, Seed: 4, Priority: 0},
		{Type: TypeAnneal, N: 64, M: 20, R: 7, Iterations: 100_000, Seed: 5, Priority: 1},
		{Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, 13), Iterations: 20_000, Seed: 6, Priority: 2},
	}
	var want [][]byte
	for _, spec := range specs {
		want = append(want, uninterrupted(t, spec))
	}

	s := testServer(t, Config{Workers: 1})
	stopWatch := watchBudget(t, s)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitState(t, s, st.ID, StateRunning)
		if i > 0 {
			// The job below it is parked: queued, preempted, engine waiting.
			if got := waitState(t, s, ids[i-1], StateQueued); got.Preemptions != 1 {
				t.Fatalf("job %d: %d preemptions while parked, want 1", i-1, got.Preemptions)
			}
		}
	}
	for i, id := range ids {
		got := waitDone(t, s, id)
		if got.State != StateDone {
			t.Fatalf("job %d failed: %q", i, got.Error)
		}
		if i < 2 && got.Preemptions < 1 {
			t.Fatalf("job %d was never preempted", i)
		}
		if !bytes.Equal(got.Result, want[i]) {
			t.Fatalf("job %d: result differs from its uninterrupted run", i)
		}
	}
	stopWatch()
}

// TestDrainStopsParkedAndRunning: Drain with one parked and one running
// anneal stops both engines without a snapshot: both jobs end queued,
// every engine goroutine exits, and nothing appears under DataDir.
func TestDrainStopsParkedAndRunning(t *testing.T) {
	dataDir := t.TempDir()
	base := engineGoroutines()
	s := testServer(t, Config{Workers: 1, DataDir: dataDir})
	var ids []string
	for prio, seed := range []uint64{1, 2} {
		st, err := s.Submit(JobSpec{
			Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, seed),
			Iterations: 5_000_000, Seed: seed, Priority: prio,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateRunning)
		ids = append(ids, st.ID)
	}
	waitState(t, s, ids[0], StateQueued) // parked by the p1 job
	if n := engineGoroutines() - base; n != 2 {
		t.Fatalf("%d engine goroutines before drain, want 2 (one parked, one running)", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		if got, _ := s.sched.Get(id); got.State != StateQueued || got.Preemptions != 1 {
			t.Fatalf("job %s after drain: state %s preemptions %d, want queued and 1", id, got.State, got.Preemptions)
		}
	}
	if n := engineGoroutines() - base; n != 0 {
		t.Fatalf("%d engine goroutines left after drain", n)
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("drain wrote %d files under the data dir, first %q", len(entries), entries[0].Name())
	}
}

// TestCacheHitDuringHeldAppend: a job's run-store append runs without
// the scheduler lock, after its workers went back. While one is held,
// a cache hit and a status read answer at once, the held job is not yet
// visible as done, and its append ends up inside its run episode.
func TestCacheHitDuringHeldAppend(t *testing.T) {
	storeDir := t.TempDir()
	s := testServer(t, Config{Workers: 1, StoreDir: storeDir})
	hot := JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: 7}
	first := submitDone(t, s, hot)

	held, release := make(chan struct{}), make(chan struct{})
	s.sched.appendHook = func(j *job) {
		if j.spec.GraphSeed == 8 {
			close(held)
			<-release
		}
	}
	cold, err := s.Submit(JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("the cold job never reached its append")
	}

	answered := make(chan JobStatus, 1)
	go func() {
		st, _ := s.Submit(hot)
		answered <- st
	}()
	select {
	case st := <-answered:
		if !st.Cached || st.State != StateDone || !bytes.Equal(st.Result, first.Result) {
			t.Fatalf("resubmission: cached %v state %s", st.Cached, st.State)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a cache hit waited for another job's run-store append")
	}
	if st, _ := s.sched.Get(cold.ID); st.State == StateDone {
		t.Fatal("job visible as done before its record was appended")
	}
	s.sched.mu.Lock()
	free := s.sched.free
	s.sched.mu.Unlock()
	if free != 1 {
		t.Fatalf("%d of 1 workers free during the append, want its workers released", free)
	}
	close(release)
	done := waitDone(t, s, cold.ID)

	store, err := runstore.OpenRead(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d records, want 2", store.Len())
	}
	if rec := store.Records()[1]; !bytes.Equal(rec.Result, done.Result) {
		t.Fatal("stored result differs from the served reply")
	}
	root := jobSpanTree(t, s, cold.ID)
	var last *obs.SpanNode
	for _, c := range root.Children {
		if c.Name == "run" {
			last = c
		}
	}
	var appendSpan *obs.SpanNode
	for _, c := range last.Children {
		if c.Name == "store.append" {
			appendSpan = c
		}
	}
	if appendSpan == nil {
		t.Fatal("no store.append span in the final run episode")
	}
	if appendSpan.Start < last.Start || appendSpan.End() > last.End() {
		t.Fatal("store.append escapes its run episode")
	}
}
