package core

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/bounds"
	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/opt"
)

func TestSolveSingleSwitch(t *testing.T) {
	top, err := Solve(8, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if top.Method != SingleSwitch {
		t.Fatalf("method = %v, want single-switch", top.Method)
	}
	if top.MUsed != 1 || top.Metrics.HASPL != 2 {
		t.Fatalf("unexpected topology: m=%d h-ASPL=%v", top.MUsed, top.Metrics.HASPL)
	}
}

func TestSolveCliqueRegime(t *testing.T) {
	// n=128, r=24 is the paper's clique case (m=8, h-ASPL < 3).
	top, err := Solve(128, 24, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if top.Method != CliqueOptimal {
		t.Fatalf("method = %v, want clique", top.Method)
	}
	if top.MUsed != 8 {
		t.Fatalf("clique used m=%d, want 8", top.MUsed)
	}
	if top.Metrics.HASPL >= 3 {
		t.Fatalf("clique h-ASPL = %v, want < 3", top.Metrics.HASPL)
	}
	if top.Metrics.HASPL < top.LowerBound-1e-9 {
		t.Fatalf("h-ASPL %v beats Theorem 2 bound %v", top.Metrics.HASPL, top.LowerBound)
	}
}

func TestSolveAnnealedRegime(t *testing.T) {
	top, err := Solve(96, 8, Options{Iterations: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if top.Method != Annealed {
		t.Fatalf("method = %v, want annealed", top.Method)
	}
	if top.MUsed != top.MPredicted {
		t.Fatalf("used m=%d, predicted %d", top.MUsed, top.MPredicted)
	}
	if err := top.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.Metrics.HASPL < top.LowerBound-1e-9 {
		t.Fatalf("h-ASPL %v below Theorem 2 bound %v", top.Metrics.HASPL, top.LowerBound)
	}
	// The SA result should be within a reasonable factor of the continuous
	// Moore bound at m_opt (the paper's Fig. 5 shows the optimised curves
	// hugging the bound).
	if top.Metrics.HASPL > top.ContinuousMoore*1.35 {
		t.Fatalf("h-ASPL %v far above continuous Moore bound %v", top.Metrics.HASPL, top.ContinuousMoore)
	}
}

func TestSolveFixedM(t *testing.T) {
	top, err := Solve(96, 8, Options{Iterations: 1500, Seed: 9, FixedM: 30})
	if err != nil {
		t.Fatal(err)
	}
	if top.MUsed != 30 {
		t.Fatalf("FixedM ignored: m=%d", top.MUsed)
	}
	if top.Method != Annealed {
		t.Fatalf("method = %v", top.Method)
	}
}

func TestSolveDeterministic(t *testing.T) {
	o := Options{Iterations: 1200, Seed: 11}
	t1, err := Solve(72, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Solve(72, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	if !hsgraph.Equal(t1.Graph, t2.Graph) {
		t.Fatal("Solve not deterministic")
	}
}

func TestSolveRestartsNoWorse(t *testing.T) {
	single, err := Solve(72, 8, Options{Iterations: 1000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Solve(72, 8, Options{Iterations: 1000, Seed: 13, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Metrics.TotalPath > single.Metrics.TotalPath {
		t.Fatalf("restarts made it worse: %d > %d", multi.Metrics.TotalPath, single.Metrics.TotalPath)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(0, 8, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Solve(10, 2, Options{}); err == nil {
		t.Fatal("r=2 accepted")
	}
	if _, err := Solve(96, 8, Options{FixedM: 2}); err == nil {
		t.Fatal("infeasible FixedM accepted")
	}
}

func TestSolvePredictionMatchesBounds(t *testing.T) {
	top, err := Solve(96, 8, Options{Iterations: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantM, _ := bounds.OptimalSwitchCount(96, 8, 0)
	if top.MPredicted != wantM {
		t.Fatalf("MPredicted = %d, bounds says %d", top.MPredicted, wantM)
	}
}

func TestMethodString(t *testing.T) {
	if SingleSwitch.String() != "single-switch" || CliqueOptimal.String() != "clique" || Annealed.String() != "annealed" {
		t.Fatal("method strings wrong")
	}
}

func TestSolveFixedMOverridesCliqueRegime(t *testing.T) {
	// n=128, r=24 is clique-feasible (m=8), but FixedM forces annealing
	// at the given switch count.
	top, err := Solve(128, 24, Options{Iterations: 500, Seed: 3, FixedM: 20})
	if err != nil {
		t.Fatal(err)
	}
	if top.Method != Annealed || top.MUsed != 20 {
		t.Fatalf("FixedM did not force annealing: %v m=%d", top.Method, top.MUsed)
	}
}

func TestSolveMovesOption(t *testing.T) {
	for _, mv := range []opt.MoveSet{opt.SwingOnly, opt.TwoNeighborSwing} {
		top, err := Solve(72, 8, Options{Iterations: 800, Seed: 5, Moves: mv})
		if err != nil {
			t.Fatalf("%v: %v", mv, err)
		}
		if err := top.Graph.Validate(); err != nil {
			t.Fatalf("%v: %v", mv, err)
		}
	}
}

func TestSolveProgressForwarded(t *testing.T) {
	calls := 0
	_, err := Solve(72, 8, Options{
		Iterations: 2000,
		Seed:       7,
		OnProgress: func(iter int, cur, best int64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
}

func TestTopologyFieldsConsistent(t *testing.T) {
	top, err := Solve(96, 8, Options{Iterations: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if top.Metrics.TotalPath != top.Graph.Evaluate().TotalPath {
		t.Fatal("Metrics field out of sync with Graph")
	}
	if top.ContinuousMoore <= 2 || top.LowerBound <= 2 {
		t.Fatalf("bounds fields implausible: %+v", top)
	}
	if top.Anneal.Iterations != 500 {
		t.Fatalf("anneal stats missing: %+v", top.Anneal)
	}
}

// TestSolveMetricsAreTheGraphs: the annealed regime reports the
// annealer's own evaluation of the graph it returns instead of
// evaluating it again, so that evaluation must be the reference one of
// the returned graph — on the sharded and the cache-scored paths, with
// restarts, after an interrupt and after the resume that follows it.
func TestSolveMetricsAreTheGraphs(t *testing.T) {
	check := func(name string, top *Topology) {
		t.Helper()
		if top.Method != Annealed {
			t.Fatalf("%s: method %v, want annealed", name, top.Method)
		}
		if slow := top.Graph.EvaluateSlow(); top.Metrics != slow {
			t.Fatalf("%s: Metrics %+v, EvaluateSlow of the returned graph %+v", name, top.Metrics, slow)
		}
	}
	for _, tc := range []struct {
		name string
		n, r int
		o    Options
	}{
		{"sharded", 72, 8, Options{Iterations: 1500, Seed: 3}},
		{"restarts", 72, 8, Options{Iterations: 800, Seed: 5, Restarts: 3}},
		{"symmetric", 96, 8, Options{Iterations: 800, Seed: 2, Symmetry: 2}},
		{"cache", 1024, 15, Options{Iterations: 300, Seed: 1, Workers: 2}},
	} {
		top, err := Solve(tc.n, tc.r, tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name, top)
	}

	path := filepath.Join(t.TempDir(), "solve.orpc")
	var intr atomic.Bool
	intr.Store(true) // stops after the first iteration
	o := Options{Iterations: 2000, Seed: 4, CheckpointPath: path, Interrupt: &intr}
	top, err := Solve(72, 8, o)
	if !errors.Is(err, ckpt.ErrInterrupted) || top == nil {
		t.Fatalf("interrupted solve: top=%v err=%v", top, err)
	}
	if top.Anneal.Iterations >= o.Iterations {
		t.Fatalf("interrupt did not stop the run early: %d iterations", top.Anneal.Iterations)
	}
	check("interrupted", top)
	o.Interrupt, o.Resume = nil, true
	top, err = Solve(72, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	check("resumed", top)
}
