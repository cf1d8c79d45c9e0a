package opt

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

func TestAnnealImproves(t *testing.T) {
	start := randomGraph(t, 64, 16, 8, 20)
	g, res, err := Anneal(start, Options{Iterations: 4000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("annealed graph invalid: %v", err)
	}
	if res.Best.TotalPath > res.Initial.TotalPath {
		t.Fatalf("annealing worsened energy: %d -> %d", res.Initial.TotalPath, res.Best.TotalPath)
	}
	if res.Best.HASPL < bounds.HASPLLowerBound(64, 8)-1e-9 {
		t.Fatalf("annealed h-ASPL %v beats Theorem 2 bound %v", res.Best.HASPL, bounds.HASPLLowerBound(64, 8))
	}
	if g.NumEdges() != start.NumEdges() {
		t.Fatal("edge count not preserved by annealing")
	}
}

func TestAnnealDeterministic(t *testing.T) {
	start := randomGraph(t, 40, 10, 8, 30)
	o := Options{Iterations: 1500, Seed: 31}
	g1, r1, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	g2, r2, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	if !hsgraph.Equal(g1, g2) {
		t.Fatal("same seed produced different graphs")
	}
	if r1.Best.TotalPath != r2.Best.TotalPath || r1.Accepted != r2.Accepted {
		t.Fatalf("same seed produced different results: %+v vs %+v", r1, r2)
	}
}

func TestAnnealDoesNotMutateInput(t *testing.T) {
	start := randomGraph(t, 40, 10, 8, 32)
	snapshot := start.Clone()
	if _, _, err := Anneal(start, Options{Iterations: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !hsgraph.Equal(start, snapshot) {
		t.Fatal("Anneal mutated its input")
	}
}

func TestAnnealSwapOnlyKeepsRegularity(t *testing.T) {
	start, err := hsgraph.RandomRegular(48, 12, 8, 4, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := Anneal(start, Options{Iterations: 2000, Seed: 34, Moves: SwapOnly})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.Switches(); s++ {
		if g.SwitchDegree(s) != 4 || g.HostCount(s) != 4 {
			t.Fatalf("switch %d not regular after swap-only SA: deg=%d hosts=%d", s, g.SwitchDegree(s), g.HostCount(s))
		}
	}
}

func TestAnnealSwingOnly(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 35)
	g, res, err := Anneal(start, Options{Iterations: 2000, Seed: 36, Moves: SwingOnly})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Best.TotalPath > res.Initial.TotalPath {
		t.Fatal("swing-only SA worsened energy")
	}
}

func TestAnnealRejectsInvalidInput(t *testing.T) {
	if _, _, err := Anneal(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := hsgraph.New(2, 2, 3) // hosts unattached
	if _, _, err := Anneal(bad, Options{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
	g := randomGraph(t, 12, 4, 6, 1)
	if _, _, err := Anneal(g, Options{InitialTemp: 1, FinalTemp: 10}); err == nil {
		t.Fatal("inverted temperature range accepted")
	}
}

func TestAnnealProgressCallback(t *testing.T) {
	start := randomGraph(t, 24, 8, 7, 40)
	calls := 0
	_, _, err := Anneal(start, Options{
		Iterations:  1000,
		ReportEvery: 100,
		Seed:        41,
		Observer: ObserverFunc(func(s AnnealSample) {
			calls++
			if s.Iter%100 != 0 {
				t.Errorf("callback at iter %d not on boundary", s.Iter)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("expected 10 progress calls, got %d", calls)
	}
}

func TestAnnealApproachesCliqueOptimum(t *testing.T) {
	// n=24, r=10: clique with m=3 achieves h-ASPL
	// (3*C(8,2)*2 + 3*64*3) / C(24,2) = 744/276.
	want := 744.0 / 276
	clique, err := Clique(24, 10)
	if err != nil {
		t.Fatal(err)
	}
	cm := clique.Evaluate()
	if math.Abs(cm.HASPL-want) > 1e-12 {
		t.Fatalf("clique h-ASPL = %v, want %v", cm.HASPL, want)
	}
	// SA from a random start with the same m must not beat the clique
	// (Theorem 3) and should get close.
	start := randomGraph(t, 24, 3, 10, 50)
	_, res, err := Anneal(start, Options{Iterations: 3000, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.HASPL < cm.HASPL-1e-9 {
		t.Fatalf("SA beat the provably optimal clique: %v < %v", res.Best.HASPL, cm.HASPL)
	}
	if res.Best.HASPL > cm.HASPL*1.10 {
		t.Fatalf("SA ended far from optimum: %v vs %v", res.Best.HASPL, cm.HASPL)
	}
}

func TestParallelAnneal(t *testing.T) {
	start := randomGraph(t, 40, 10, 8, 60)
	g1, r1, err := ParallelAnneal(start, Options{Iterations: 800, Seed: 61}, 4)
	if err != nil {
		t.Fatal(err)
	}
	g2, r2, err := ParallelAnneal(start, Options{Iterations: 800, Seed: 61}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !hsgraph.Equal(g1, g2) || r1.Best.TotalPath != r2.Best.TotalPath {
		t.Fatal("ParallelAnneal not deterministic")
	}
	// The multi-start winner can be no worse than a single run with the
	// same base seed.
	_, single, err := Anneal(start, Options{Iterations: 800, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.TotalPath > single.Best.TotalPath {
		t.Fatalf("multi-start worse than its own first seed: %d > %d", r1.Best.TotalPath, single.Best.TotalPath)
	}
}

func TestCliqueConstructions(t *testing.T) {
	// Section 5.3: n=128, r=24 admits a clique at m=8.
	g, err := Clique(128, 24)
	if err != nil {
		t.Fatal(err)
	}
	if g.Switches() != 8 {
		t.Fatalf("Clique(128,24) used %d switches, want 8", g.Switches())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	met := g.Evaluate()
	if met.HASPL >= 3 {
		t.Fatalf("clique h-ASPL %v should be below 3 (paper Fig. 5a discussion)", met.HASPL)
	}
	if _, err := Clique(1<<20, 24); err == nil {
		t.Fatal("impossible clique accepted")
	}
	if _, err := CliqueWith(128, 4, 24); err == nil {
		t.Fatal("undersized clique accepted (4*(24-3) = 84 < 128)")
	}
}

func TestMoveSetString(t *testing.T) {
	if SwapOnly.String() != "swap" || SwingOnly.String() != "swing" || TwoNeighborSwing.String() != "2-neighbor-swing" {
		t.Fatal("MoveSet strings wrong")
	}
	if MoveSet(99).String() == "" {
		t.Fatal("unknown move set produced empty string")
	}
}
