package hsgraph

import (
	"testing"

	"repro/internal/rng"
)

// totalsGraph builds a random sym-symmetric graph (sym 1: generic) for the
// totals-kernel oracle: larger than symTestGraph's, with up to 40 hosts
// per switch (six bit planes), about a quarter of the orbits host-free,
// and an orbit-closed ring with a few links missing (so some graphs start
// disconnected) plus random chords.
func totalsGraph(t *testing.T, rnd *rng.Rand, sym int) *Graph {
	t.Helper()
	q := 3 + rnd.Intn(100)
	if sym == 1 {
		q = 3 + rnd.Intn(200)
	}
	m := q * sym
	k := make([]int, q)
	n := 0
	for i := range k {
		if rnd.Intn(4) > 0 {
			k[i] = rnd.Intn(41)
		}
		n += k[i] * sym
	}
	if n < 2 {
		k[0] = 33
		n = 33 * sym
	}
	g := New(n, m, 48)
	h := 0
	for s := 0; s < m; s++ {
		for i := 0; i < k[s%q]; i++ {
			if err := g.AttachHost(h, s); err != nil {
				t.Fatal(err)
			}
			h++
		}
	}
	for s := 0; s < q; s++ {
		if rnd.Intn(16) > 0 {
			symTestAddOrbit(t, g, sym, s, (s+1)%m)
		}
	}
	for i := rnd.Intn(2 * q); i > 0; i-- {
		if a, b := rnd.Intn(m), rnd.Intn(m); a != b {
			symTestAddOrbit(t, g, sym, a, b)
		}
	}
	return g
}

// mutateOrbits makes the given number of whole-orbit edits to g, keeping it
// sym-symmetric: edge removals (which may disconnect it), edge additions,
// and host moves between orbits that sometimes empty the source orbit.
func mutateOrbits(t *testing.T, g *Graph, sym int, rnd *rng.Rand, edits int) {
	t.Helper()
	m := g.Switches()
	q := m / sym
	for ; edits > 0; edits-- {
		switch rnd.Intn(3) {
		case 0:
			if g.NumEdges() > 0 {
				a, b := g.Edge(rnd.Intn(g.NumEdges()))
				symTestRemoveOrbit(t, g, sym, a, b)
			}
		case 1:
			if a, b := rnd.Intn(m), rnd.Intn(m); a != b {
				symTestAddOrbit(t, g, sym, a, b)
			}
		default:
			from, to := rnd.Intn(m), rnd.Intn(m)
			k := g.HostCount(from)
			if from%q == to%q || k == 0 {
				continue
			}
			if rnd.Intn(3) > 0 {
				k = 1 + rnd.Intn(k)
			}
			if g.Degree(to)+k > g.Radix() {
				continue
			}
			for j := 0; j < sym; j++ {
				for i := 0; i < k; i++ {
					if err := g.MoveHost(g.AnyHostOn((from+j*q)%m), (to+j*q)%m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestTotalsKernelOracle checks every evaluation built on the totals
// kernel against the per-source BFS oracle, EvaluateSlow: Graph.Evaluate,
// the sharded Evaluator at 1, 2 and 4 workers, and the orbit-mode
// incremental evaluator's PeekEnergy followed by a commit (sometimes after
// one more edit, so the commit must not trust the stale peek stamp). On
// these small graphs the peeks mostly evaluate the dirty rows with the
// totals kernel, and the batches of edits often flag more than 3/4 of the
// rows, where every peek does; the commits repair or rebuild. The graphs
// are generic and symmetric, with host counts up to 40 and host-free
// switches, and the edits disconnect some of them. The test fails unless
// the run exercised both lane widths, host-free dirty sources,
// disconnected candidates, a reused peek and the 3/4 fallback.
func TestTotalsKernelOracle(t *testing.T) {
	rnd := rng.New(13)
	var narrow, wide, narrowPeek, widePeek, zeroDirty, split, reuses, tooDirty int
	for trial := 0; trial < 240; trial++ {
		sym := []int{1, 1, 2, 3, 4}[trial%5]
		g := totalsGraph(t, rnd, sym)
		want := g.EvaluateSlow()
		if got := g.Evaluate(); got != want {
			t.Fatalf("trial %d: Evaluate %+v, oracle %+v", trial, got, want)
		}
		wantE, wantC := want.TotalPath, want.Connected
		if !wantC {
			wantE = 0
		}
		sources := 0
		for s := 0; s < g.Switches(); s++ {
			if g.HostCount(s) > 0 {
				sources++
			}
		}
		if sources > 64 {
			wide++
		} else {
			narrow++
		}
		for _, w := range []int{1, 2, 4} {
			ev := NewEvaluator(w)
			if got := ev.Evaluate(g); got != want {
				t.Fatalf("trial %d workers=%d: Evaluator %+v, oracle %+v", trial, w, got, want)
			}
			if e, c := ev.Energy(g); e != wantE || c != wantC {
				t.Fatalf("trial %d workers=%d: Evaluator.Energy (%d,%v), oracle (%d,%v)", trial, w, e, c, wantE, wantC)
			}
			ev.Close()
		}

		ie := NewOrbitIncrementalEvaluator([]int{1, 2, 4}[trial%3], sym)
		ie.Energy(g)
		for round := 0; round < 4; round++ {
			mutateOrbits(t, g, sym, rnd, 1+rnd.Intn(16))
			want := g.EvaluateSlow()
			wantE, wantC := want.TotalPath, want.Connected
			if !wantC {
				wantE = 0
				split++
			}
			e, c, ok := ie.PeekEnergy(g)
			if !ok || e != wantE || c != wantC {
				t.Fatalf("trial %d round %d: PeekEnergy (%d,%v,%v), oracle (%d,%v)", trial, round, e, c, ok, wantE, wantC)
			}
			if ie.tooDirty() {
				tooDirty++
			}
			if len(ie.dirty) > 64 {
				widePeek++
			} else if len(ie.dirty) > 0 {
				narrowPeek++
			}
			for _, s := range ie.dirty {
				if g.HostCount(int(s)) == 0 {
					zeroDirty++
					break
				}
			}
			if rnd.Intn(4) == 0 {
				mutateOrbits(t, g, sym, rnd, 1)
				want = g.EvaluateSlow()
				wantE, wantC = want.TotalPath, want.Connected
				if !wantC {
					wantE = 0
				}
			}
			before := ie.Stats().StoredPeekReuses
			if e, c := ie.Energy(g); e != wantE || c != wantC {
				t.Fatalf("trial %d round %d: commit Energy (%d,%v), oracle (%d,%v)", trial, round, e, c, wantE, wantC)
			}
			if got := ie.Evaluate(g); got != want {
				t.Fatalf("trial %d round %d: committed Evaluate %+v, oracle %+v", trial, round, got, want)
			}
			reuses += int(ie.Stats().StoredPeekReuses - before)
		}
	}
	if narrow == 0 || wide == 0 || narrowPeek == 0 || widePeek == 0 || zeroDirty == 0 || split == 0 || reuses == 0 || tooDirty == 0 {
		t.Fatalf("coverage gap: graphs with <=64 / >64 sources %d / %d, peeks with <=64 / >64 dirty rows %d / %d, peeks with host-free dirty rows %d, disconnected candidates %d, stamp reuses %d, peeks past the 3/4 threshold %d",
			narrow, wide, narrowPeek, widePeek, zeroDirty, split, reuses, tooDirty)
	}
}
