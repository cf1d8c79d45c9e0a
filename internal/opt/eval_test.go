package opt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/topo"
)

// pathStart returns a start graph on one side of hsgraph.PreferIncremental's
// threshold (m = 64): m=12 anneals on the exact path, m=72 on the
// incremental cache (orbit rows when sym >= 2). Both sizes divide by 2, 3
// and 4.
func pathStart(t *testing.T, large bool, sym int, seed uint64) *hsgraph.Graph {
	t.Helper()
	n, m := 48, 12
	if large {
		n, m = 288, 72
	}
	if sym < 2 {
		return randomGraph(t, n, m, 8, seed)
	}
	g, err := topo.RandomSymmetric(n, m, 8, sym, seed)
	if err != nil {
		t.Fatalf("RandomSymmetric(%d, %d, 8, %d): %v", n, m, sym, err)
	}
	return g
}

// progressPoint is one Observer sample's iteration and energies: with
// ReportEvery=1 the sequence of points is the full accepted-move
// trajectory of a run.
type progressPoint struct {
	iter          int
	current, best int64
}

// annealRun is what a run must reproduce of the reference: the serialized
// best graph, the Result and the trajectory.
type annealRun struct {
	g    []byte
	res  Result
	traj []progressPoint
}

// trajectory anneals start with ReportEvery=1 and records the run.
func trajectory(t *testing.T, start *hsgraph.Graph, o Options) annealRun {
	t.Helper()
	var r annealRun
	o.ReportEvery = 1
	o.Observer = ObserverFunc(func(s AnnealSample) {
		r.traj = append(r.traj, progressPoint{s.Iter, s.Current, s.Best})
	})
	g, res, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	r.g, r.res = graphBytes(t, g), res
	return r
}

// referenceRun is trajectory with every candidate scored by EvaluateSlow.
func referenceRun(t *testing.T, start *hsgraph.Graph, o Options) annealRun {
	t.Helper()
	o.reference = true
	return trajectory(t, start, o)
}

// requireMatchesReference checks got against the reference run, and that
// got took the path its size calls for: the cache reports work exactly
// when the start is above the threshold.
func requireMatchesReference(t *testing.T, ctx string, large bool, want, got annealRun) {
	t.Helper()
	if cached := got.res.Eval != (EvalStats{}); cached != large {
		t.Fatalf("%s: cache path %v, want %v", ctx, cached, large)
	}
	if !bytes.Equal(want.g, got.g) {
		t.Fatalf("%s: best graph differs from the reference anneal's", ctx)
	}
	got.res.Eval = EvalStats{}
	if !reflect.DeepEqual(want.res, got.res) {
		t.Fatalf("%s: results differ:\nreference %+v\ngot       %+v", ctx, want.res, got.res)
	}
	for i := range want.traj {
		if i < len(got.traj) && want.traj[i] != got.traj[i] {
			t.Fatalf("%s: trajectories fork at iteration %d: reference %+v, got %+v", ctx, want.traj[i].iter, want.traj[i], got.traj[i])
		}
	}
	if len(want.traj) != len(got.traj) {
		t.Fatalf("%s: trajectory lengths differ: %d vs %d", ctx, len(want.traj), len(got.traj))
	}
}

// TestAnnealMatchesReference is the evaluation paths' headline property:
// for a seed, the annealer on either side of the size threshold
// reproduces the reference anneal, whose candidate energies come from
// EvaluateSlow — the same accepted-move sequence (current and best energy
// after every iteration), the same Result and the same best graph, for
// every move set and schedule at 1 and 3 workers.
func TestAnnealMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		moves MoveSet
		sched Schedule
		seeds []uint64
	}{
		{"2ns-geometric", TwoNeighborSwing, Geometric, []uint64{7, 19}},
		{"swap-geometric", SwapOnly, Geometric, []uint64{7}},
		{"swing-geometric", SwingOnly, Geometric, []uint64{7}},
		{"2ns-linear", TwoNeighborSwing, Linear, []uint64{3}},
		{"2ns-hillclimb", TwoNeighborSwing, HillClimb, []uint64{3}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, large := range []bool{false, true} {
		start := pathStart(t, large, 1, 5)
		for _, tc := range cases {
			for _, seed := range tc.seeds {
				o := Options{Iterations: 300, Moves: tc.moves, Schedule: tc.sched, Seed: seed}
				want := referenceRun(t, start, o)
				for _, workers := range []int{1, 3} {
					o.Workers = workers
					ctx := fmt.Sprintf("%s large=%v seed=%d workers=%d", tc.name, large, seed, workers)
					requireMatchesReference(t, ctx, large, want, trajectory(t, start, o))
				}
			}
		}
	}
}

// TestSymmetricAnnealMatchesReference extends the headline property to
// symmetric runs: with Options.Symmetry set, the exact path below the
// threshold and the orbit-row cache above it reproduce the reference
// anneal at 1 and 3 workers, and the search stays in the symmetric
// subspace.
func TestSymmetricAnnealMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		sym   int
		moves MoveSet
	}{
		{"2ns-sym4", 4, TwoNeighborSwing},
		{"swap-sym4", 4, SwapOnly},
		{"swing-sym4", 4, SwingOnly},
		{"2ns-sym3", 3, TwoNeighborSwing},
		{"2ns-sym2", 2, TwoNeighborSwing},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, large := range []bool{false, true} {
		for _, tc := range cases {
			start := pathStart(t, large, tc.sym, 5)
			o := Options{Iterations: 300, Moves: tc.moves, Symmetry: tc.sym, Seed: 7}
			want := referenceRun(t, start, o)
			for _, workers := range []int{1, 3} {
				o.Workers = workers
				ctx := fmt.Sprintf("%s large=%v workers=%d", tc.name, large, workers)
				requireMatchesReference(t, ctx, large, want, trajectory(t, start, o))
			}
			g, err := hsgraph.Read(bytes.NewReader(want.g))
			if err != nil {
				t.Fatal(err)
			}
			if err := hsgraph.VerifySymmetric(g, tc.sym); err != nil {
				t.Fatalf("%s: best graph left the symmetric subspace: %v", tc.name, err)
			}
		}
	}
}

// TestCalibratedTempMatchesReference: calibration scores its sample moves
// through the run's own scorer, so every path must calibrate the
// reference anneal's InitialTemp for a seed, bit for bit, on generic and
// symmetric starts on both sides of the threshold and for every move set.
func TestCalibratedTempMatchesReference(t *testing.T) {
	seeds := uint64(4)
	if testing.Short() {
		seeds = 2
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, large := range []bool{false, true} {
			for _, sym := range []int{0, 2, 3, 4} {
				start := pathStart(t, large, sym, seed)
				for _, moves := range []MoveSet{TwoNeighborSwing, SwapOnly, SwingOnly} {
					o := Options{Iterations: 1, Moves: moves, Symmetry: sym, Seed: seed, Workers: 2}
					var temps [2]float64
					for i, reference := range []bool{true, false} {
						o.reference = reference
						_, res, err := Anneal(start, o)
						if err != nil {
							t.Fatal(err)
						}
						temps[i] = res.InitialTemp
					}
					if temps[0] != temps[1] {
						t.Fatalf("seed %d large %v sym %d %v: calibrated InitialTemp %v, reference %v", seed, large, sym, moves, temps[1], temps[0])
					}
				}
			}
		}
	}
}

// TestParallelAnnealMatchesReference: the restart tournament picks the
// reference's winner on both sides of the threshold.
func TestParallelAnnealMatchesReference(t *testing.T) {
	for _, large := range []bool{false, true} {
		start := pathStart(t, large, 1, 5)
		o := Options{Iterations: 200, Seed: 21}
		ro := o
		ro.reference = true
		wantG, wantRes, err := ParallelAnneal(start, ro, 3)
		if err != nil {
			t.Fatal(err)
		}
		g, res, err := ParallelAnneal(start, o, 3)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, wantG, g, wantRes, res)
	}
}

// killAndResume runs o, interrupts it after iteration killAt on
// killWorkers, and resumes the snapshot on resumeWorkers.
func killAndResume(t *testing.T, start *hsgraph.Graph, o Options, killAt, killWorkers, resumeWorkers int) (*hsgraph.Graph, Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "anneal.ckpt")
	var stop atomic.Bool
	ko := o
	ko.CheckpointPath = path
	ko.CheckpointEvery = 100
	ko.Interrupt = &stop
	ko.Workers = killWorkers
	ko.Observer = ObserverFunc(func(s AnnealSample) {
		if s.Iter == killAt {
			stop.Store(true)
		}
	})
	if _, _, err := Anneal(start.Clone(), ko); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("killAt=%d: want ErrInterrupted, got %v", killAt, err)
	}
	ro := o
	ro.CheckpointPath = path
	ro.Resume = true
	ro.Workers = resumeWorkers
	g, res, err := Anneal(start.Clone(), ro)
	if err != nil {
		t.Fatalf("killAt=%d: resume: %v", killAt, err)
	}
	return g, res
}

// TestResumeMatchesReference: a run killed mid-way and resumed from its
// snapshot, on a different worker count, reproduces the uninterrupted
// reference anneal on both sides of the threshold, generic and symmetric.
func TestResumeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		large                              bool
		sym                                int
		killAt, killWorkers, resumeWorkers int
	}{
		{false, 0, 211, 1, 2},
		{true, 0, 463, 2, 1},
		{true, 4, 317, 1, 3},
	} {
		start := pathStart(t, tc.large, tc.sym, 5)
		o := ckptBaseOptions()
		o.Symmetry = tc.sym
		ro := o
		ro.reference = true
		wantG, wantRes, err := Anneal(start.Clone(), ro)
		if err != nil {
			t.Fatal(err)
		}
		gotG, gotRes := killAndResume(t, start, o, tc.killAt, tc.killWorkers, tc.resumeWorkers)
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// TestIncrementalKillResume: a cache-path run interrupted at an arbitrary
// iteration and resumed from its snapshot — including with a different
// worker count — is bit-identical to the uninterrupted run. The resumed
// half re-attaches the cache to the restored graph.
func TestIncrementalKillResume(t *testing.T) {
	start := pathStart(t, true, 1, 5)
	o := ckptBaseOptions()
	wantG, wantRes, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.Eval == (EvalStats{}) {
		t.Fatal("the start took the exact path; the test needs the cache")
	}
	for _, tc := range []struct {
		killAt, killWorkers, resumeWorkers int
	}{
		{1, 1, 2},
		{137, 1, 3},
		{517, 3, 1},
		{799, 2, 2},
	} {
		gotG, gotRes := killAndResume(t, start, o, tc.killAt, tc.killWorkers, tc.resumeWorkers)
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// ladderFixture is a snapshot the retired sampled evaluation mode wrote:
// ckptBaseOptions under that mode from randomGraph(t, 48, 12, 8, 5), with
// CheckpointEvery 100, interrupted after iteration 317. It carries
// evaluation mode 2 and a live estimator RNG stream.
const ladderFixture = "testdata/ladder-v3-iter317.ckpt"

// TestLadderKillResume: a run of the retired sampled mode, killed
// mid-run, resumes bit-identically to the uninterrupted reference anneal.
// This pins the unchanged orp.anneal.v3 layout (mode 2 and the estimator
// words still decode) and the promise that a stored mode selects nothing.
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
	ref := ckptBaseOptions()
	ref.reference = true
	wantG, wantRes, err := Anneal(start, ref)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed run rewrites its snapshot, so it gets a copy.
	path := filepath.Join(t.TempDir(), "ladder.ckpt")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ro := ckptBaseOptions()
	ro.CheckpointPath = path
	ro.Resume = true
	gotG, gotRes, err := Anneal(start, ro)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
}
