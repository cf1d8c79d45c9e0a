package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// TestPropertyMovesPreserveInvariants: arbitrary sequences of the three
// search operations keep the graph structurally valid, preserve the edge
// count (every operation exchanges endpoints, never adds or removes
// edges), and preserve the total host count.
func TestPropertyMovesPreserveInvariants(t *testing.T) {
	check := func(seed uint64, ops []byte) bool {
		rnd := rng.New(seed)
		g, err := hsgraph.RandomConnected(20, 7, 6, rnd)
		if err != nil {
			return false
		}
		edges := g.NumEdges()
		decide := func() (int64, bool) {
			met := g.Evaluate()
			if !met.Connected {
				return 1 << 60, false
			}
			return met.TotalPath, rnd.Intn(2) == 0
		}
		var mv [2]move
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if trySwap(g, 1, rnd, &mv[0]) && rnd.Intn(2) == 0 {
					mv[0].undo(g)
				}
			case 1:
				if trySwing(g, 1, rnd, &mv[0]) && rnd.Intn(2) == 0 {
					mv[0].undo(g)
				}
			case 2:
				twoNeighborSwing(g, 1, rnd, decide, &MoveCounters{}, &mv)
			}
			if g.NumEdges() != edges {
				return false
			}
			if err := g.Validate(); err != nil && err != hsgraph.ErrNotConnected {
				return false
			}
			hosts := 0
			for s := 0; s < g.Switches(); s++ {
				hosts += g.HostCount(s)
			}
			if hosts != 20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAnnealNeverBeatsBounds: over random instances, the SA
// result respects Theorem 2 (checked indirectly: the best energy is a
// real graph's energy, and real graphs respect the bound — asserted in
// bounds' own tests; here we assert best <= initial, i.e. SA never
// returns something worse than its start).
func TestPropertyAnnealMonotoneBest(t *testing.T) {
	check := func(seed uint64) bool {
		rnd := rng.New(seed)
		g, err := hsgraph.RandomConnected(24, 8, 7, rnd)
		if err != nil {
			return false
		}
		_, res, err := Anneal(g, Options{Iterations: 300, Seed: seed})
		if err != nil {
			return false
		}
		return res.Best.TotalPath <= res.Initial.TotalPath
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(110))}); err != nil {
		t.Fatal(err)
	}
}
