package opt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
)

// progressPoint is one OnProgress observation: with ReportEvery=1 the
// sequence of points is the full accepted-move trajectory of a run.
type progressPoint struct {
	iter          int
	current, best int64
}

// runWithTrajectory anneals with ReportEvery=1 and returns the serialized
// best graph, the Result and every (iter, current, best) point.
func runWithTrajectory(t *testing.T, o Options, seed uint64) ([]byte, Result, []progressPoint) {
	t.Helper()
	start := randomGraph(t, 48, 12, 8, 5)
	var traj []progressPoint
	o.Seed = seed
	o.ReportEvery = 1
	o.OnProgress = func(iter int, current, best int64) {
		traj = append(traj, progressPoint{iter, current, best})
	}
	g, res, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	return graphBytes(t, g), res, traj
}

// TestEvalModesProduceIdenticalRuns is the evaluation modes' headline
// property: for the same seed, exact and incremental evaluation produce
// the identical accepted-move sequence (same current/best energy after
// every iteration), the identical Result (move counters included) and the
// identical final best graph, across move sets, schedules and worker
// counts.
func TestEvalModesProduceIdenticalRuns(t *testing.T) {
	cases := []struct {
		name  string
		moves MoveSet
		sched Schedule
		iters int
		seeds []uint64
	}{
		{"2ns-geometric", TwoNeighborSwing, Geometric, 400, []uint64{7, 19}},
		{"swap-geometric", SwapOnly, Geometric, 400, []uint64{7}},
		{"swing-geometric", SwingOnly, Geometric, 400, []uint64{7}},
		{"2ns-linear", TwoNeighborSwing, Linear, 300, []uint64{3}},
		{"2ns-hillclimb", TwoNeighborSwing, HillClimb, 300, []uint64{3}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			base := Options{Iterations: tc.iters, Moves: tc.moves, Schedule: tc.sched}
			exactO := base
			exactO.Eval = EvalExact
			wantG, wantRes, wantTraj := runWithTrajectory(t, exactO, seed)
			for _, workers := range []int{1, 3} {
				o := base
				o.Eval = EvalIncremental
				o.Workers = workers
				gotG, gotRes, gotTraj := runWithTrajectory(t, o, seed)
				if !bytes.Equal(wantG, gotG) {
					t.Fatalf("%s seed=%d workers=%d: best graphs differ from exact mode", tc.name, seed, workers)
				}
				gotRes.Eval = EvalStats{} // diagnostics differ by mode by design
				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Fatalf("%s seed=%d workers=%d: results differ:\nexact %+v\ngot   %+v", tc.name, seed, workers, wantRes, gotRes)
				}
				if !reflect.DeepEqual(wantTraj, gotTraj) {
					for i := range wantTraj {
						if i < len(gotTraj) && wantTraj[i] != gotTraj[i] {
							t.Fatalf("%s seed=%d workers=%d: trajectories fork at iteration %d: exact %+v, got %+v",
								tc.name, seed, workers, wantTraj[i].iter, wantTraj[i], gotTraj[i])
						}
					}
					t.Fatalf("%s seed=%d workers=%d: trajectory lengths differ: %d vs %d", tc.name, seed, workers, len(wantTraj), len(gotTraj))
				}
			}
		}
	}
}

// killAndResume runs ckptBaseOptions under killEval with killWorkers,
// interrupts it after iteration killAt, and resumes the snapshot under
// resumeEval with resumeWorkers.
func killAndResume(t *testing.T, start *hsgraph.Graph, killEval, resumeEval EvalMode, killAt, killWorkers, resumeWorkers int) (*hsgraph.Graph, Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "anneal.ckpt")
	var stop atomic.Bool
	ko := ckptBaseOptions()
	ko.Eval = killEval
	ko.CheckpointPath = path
	ko.CheckpointEvery = 100
	ko.Interrupt = &stop
	ko.Workers = killWorkers
	ko.OnProgress = func(iter int, current, best int64) {
		if iter == killAt {
			stop.Store(true)
		}
	}
	if _, _, err := Anneal(start, ko); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("%v killAt=%d: want ErrInterrupted, got %v", killEval, killAt, err)
	}
	ro := ckptBaseOptions()
	ro.Eval = resumeEval
	ro.CheckpointPath = path
	ro.Resume = true
	ro.Workers = resumeWorkers
	g, res, err := Anneal(start, ro)
	if err != nil {
		t.Fatalf("%v killAt=%d: resume under %v: %v", killEval, killAt, resumeEval, err)
	}
	return g, res
}

// TestIncrementalKillResume: an incremental-mode run interrupted at an
// arbitrary iteration and resumed from its snapshot — including with a
// different worker count — is bit-identical to the uninterrupted
// incremental run (and hence to the exact run, by
// TestEvalModesProduceIdenticalRuns). The resumed half re-attaches the
// cache to the restored graph.
func TestIncrementalKillResume(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	o := ckptBaseOptions()
	o.Eval = EvalIncremental
	wantG, wantRes, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		killAt, killWorkers, resumeWorkers int
	}{
		{1, 1, 2},
		{137, 1, 3},
		{517, 3, 1},
		{799, 2, 2},
	} {
		gotG, gotRes := killAndResume(t, start, EvalIncremental, EvalIncremental, tc.killAt, tc.killWorkers, tc.resumeWorkers)
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// TestResumeAcrossEvalModes: the evaluation mode is not part of a
// snapshot's identity. A run killed in exact mode resumes in incremental
// mode and vice versa, both bit-identical to the uninterrupted run.
func TestResumeAcrossEvalModes(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	wantG, wantRes, err := Anneal(start, ckptBaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kill, resume EvalMode
		killAt       int
	}{
		{EvalExact, EvalIncremental, 211},
		{EvalIncremental, EvalExact, 463},
	} {
		gotG, gotRes := killAndResume(t, start, tc.kill, tc.resume, tc.killAt, 1, 2)
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// ladderFixture is a snapshot the retired sampled evaluation mode wrote:
// ckptBaseOptions under that mode from randomGraph(t, 48, 12, 8, 5), with
// CheckpointEvery 100, interrupted after iteration 317. It carries
// evaluation mode 2 and a live estimator RNG stream.
const ladderFixture = "testdata/ladder-v3-iter317.ckpt"

// TestLadderKillResume: a run of the retired sampled mode, killed
// mid-run, resumes under both remaining modes bit-identically to the
// uninterrupted exact run. This pins the unchanged orp.anneal.v3 layout
// (mode 2 and the estimator words still decode) and the promise that
// those snapshots resume as exact or incremental runs.
func TestLadderKillResume(t *testing.T) {
	blob, err := os.ReadFile(ladderFixture)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ckpt.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if kind != annealKind {
		t.Fatalf("fixture kind %q, want %q", kind, annealKind)
	}
	s, err := decodeAnnealSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if s.eval != evalRetiredLadder || s.iter != 317 {
		t.Fatalf("fixture decodes as mode %d at iteration %d, want mode %d at 317", int(s.eval), s.iter, int(evalRetiredLadder))
	}

	start := randomGraph(t, 48, 12, 8, 5)
	wantG, wantRes, err := Anneal(start, ckptBaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []EvalMode{EvalIncremental, EvalExact} {
		// The resumed run rewrites its snapshot, so it gets a copy.
		path := filepath.Join(t.TempDir(), "ladder.ckpt")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		ro := ckptBaseOptions()
		ro.Eval = mode
		ro.CheckpointPath = path
		ro.Resume = true
		gotG, gotRes, err := Anneal(start, ro)
		if err != nil {
			t.Fatalf("resume under %v: %v", mode, err)
		}
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// TestParallelAnnealEvalModes: the restart tournament picks the same
// winner in every evaluation mode.
func TestParallelAnnealEvalModes(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	base := Options{Iterations: 300, Seed: 21}
	exactG, exactRes, err := ParallelAnneal(start, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Eval = EvalIncremental
	g, res, err := ParallelAnneal(start, o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphBytes(t, exactG), graphBytes(t, g)) {
		t.Fatal("incremental ParallelAnneal winner differs from exact mode")
	}
	res.Eval = EvalStats{} // diagnostics differ by mode by design
	if !reflect.DeepEqual(exactRes, res) {
		t.Fatalf("incremental ParallelAnneal results differ:\nexact %+v\ngot   %+v", exactRes, res)
	}
}
