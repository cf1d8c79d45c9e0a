// Package opt implements the paper's randomized algorithm for the
// order/radix problem: simulated annealing over host-switch graphs with the
// swap operation (Section 5.1), the swing operation and the 2-neighbor
// swing operation (Section 5.2), plus the clique construction of the
// Appendix for the trivial regime n <= m(r-m+1).
package opt

import (
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// Each operator applies its paper move to a whole orbit of the cyclic
// group action σ(s) = (s + m/sym) mod m: the base move plus its sym-1
// images. sym = 1 is the identity action, which leaves exactly the
// paper's operator. A graph that enters sym-symmetric leaves
// sym-symmetric, which is what lets the orbit-row cache (the orbit-mode
// hsgraph.IncrementalEvaluator) keep quotienting throughout an anneal.
//
// Pairs fixed by the half-turn σ^(sym/2) (endpoints m/2 apart, even sym
// only) have short orbits that the uniform image loop would double-touch;
// every operator rejects moves that would remove or create such an
// antipodal edge (hsgraph.Antipodal, the predicate the seed generator
// uses too; never true for odd sym). An image that collides (an image of
// the added edge already present, a port filled by an earlier image)
// rolls the orbit back, most recent edit first, and the move fails with
// the graph untouched.

// moveKind names the operator a move record reverses.
type moveKind uint8

const (
	swapMove moveKind = iota
	swingMove
)

// A move records one applied orbit move, enough to reverse it: a swap of
// {a,b}, {c,d} into {a,d}, {b,c}, or swing(a, b, c) with hosts[j] the
// host that image j moved from c_j to b_j. Records are reused from move
// to move, so proposing and undoing allocate nothing.
type move struct {
	kind       moveKind
	sym        int
	a, b, c, d int
	hosts      []int32
}

// undo reverses the recorded move, which must be the last edit of g. A
// swap is undone by the inverse swap, {a,d}, {b,c} back into {a,b},
// {c,d}: it restores edges the move removed, so it cannot collide. A
// swing is undone image by image, the last image first.
func (mv *move) undo(g *hsgraph.Graph) {
	switch mv.kind {
	case swapMove:
		if !swapOrbit(g, mv.sym, mv.a, mv.d, mv.c, mv.b) {
			panic("opt: move invariant violated: inverse swap collided")
		}
	case swingMove:
		mv.unswing(g)
	}
}

// trySwap samples a random swap operation (Fig. 2): replace switch-switch
// edges {a,b}, {c,d} by {a,d}, {b,c}, orbit-wide. Host attachments are
// untouched, so repeated swaps explore k-regular host-switch graphs.
// Returns false (graph unchanged) when no valid swap could be sampled.
func trySwap(g *hsgraph.Graph, sym int, rnd *rng.Rand, mv *move) bool {
	ne := g.NumEdges()
	if ne < 2 {
		return false
	}
	for attempt := 0; attempt < 8; attempt++ {
		i := rnd.Intn(ne)
		j := rnd.Intn(ne)
		if i == j {
			continue
		}
		a, b := g.Edge(i)
		c, d := g.Edge(j)
		// Random orientation: swap the roles of c and d half the time, so
		// both rewirings {a,d}/{b,c} and {a,c}/{b,d} are reachable.
		if rnd.Intn(2) == 0 {
			c, d = d, c
		}
		if a == c || a == d || b == c || b == d {
			continue
		}
		if g.HasEdge(a, d) || g.HasEdge(b, c) {
			continue
		}
		if applySwap(g, sym, a, b, c, d, mv) {
			return true
		}
	}
	return false
}

// applySwap performs the swap of {a,b}, {c,d} into {a,d}, {b,c} and its
// images, recording it in mv. The caller has checked the base move (four
// distinct switches, {a,d} and {b,c} absent). Fails (graph unchanged) on
// an antipodal pair or an image collision.
func applySwap(g *hsgraph.Graph, sym, a, b, c, d int, mv *move) bool {
	m := g.Switches()
	if hsgraph.Antipodal(m, sym, a, b) || hsgraph.Antipodal(m, sym, c, d) ||
		hsgraph.Antipodal(m, sym, a, d) || hsgraph.Antipodal(m, sym, b, c) {
		return false
	}
	if !swapOrbit(g, sym, a, b, c, d) {
		return false
	}
	mv.kind, mv.sym, mv.a, mv.b, mv.c, mv.d = swapMove, sym, a, b, c, d
	return true
}

// swapOrbit removes every image of {a,b}, then of {c,d}, and adds every
// image of {a,d}, then of {b,c}. On a collision it reverses what it
// applied, most recent edit first, and reports false.
func swapOrbit(g *hsgraph.Graph, sym, a, b, c, d int) bool {
	pairs := [4][2]int{{a, b}, {c, d}, {a, d}, {b, c}}
	m := g.Switches()
	q := m / sym
	// Edit i is image i%sym of pairs[i/sym]; the first 2*sym remove.
	edit := func(i int, reverse bool) error {
		p, shift := pairs[i/sym], i%sym*q
		u, v := (p[0]+shift)%m, (p[1]+shift)%m
		if (i < 2*sym) == reverse {
			return g.Connect(u, v)
		}
		return g.Disconnect(u, v)
	}
	for i := 0; i < 4*sym; i++ {
		if edit(i, false) != nil {
			for i--; i >= 0; i-- {
				mustDo(edit(i, true))
			}
			return false
		}
	}
	return true
}

// applySwing performs swing(a, b, c) (Fig. 3) and its images, recording
// it in mv: every image edge {a_j,b_j} is rewired to {a_j,c_j} with one
// host moved from c_j to b_j, so k_b grows and k_c shrinks by one on
// every image while all degrees are preserved (b swaps a switch link for
// a host link, c the reverse). Fails (graph unchanged) unless, on every
// image, {a,b} exists, c has a host, c != a, c != b and {a,c} does not
// exist; and on antipodal {a,b} or {a,c}.
func applySwing(g *hsgraph.Graph, sym, a, b, c int, mv *move) bool {
	m := g.Switches()
	if hsgraph.Antipodal(m, sym, a, b) || hsgraph.Antipodal(m, sym, a, c) {
		return false
	}
	q := m / sym
	mv.kind, mv.sym, mv.a, mv.b, mv.c, mv.hosts = swingMove, sym, a, b, c, mv.hosts[:0]
	for j := 0; j < sym; j++ {
		aj, bj, cj := (a+j*q)%m, (b+j*q)%m, (c+j*q)%m
		h := -1
		if cj != aj && cj != bj && g.HasEdge(aj, bj) && !g.HasEdge(aj, cj) {
			h = g.AnyHostOn(cj)
		}
		if h < 0 {
			mv.unswing(g)
			return false
		}
		mustDo(g.Disconnect(aj, bj))
		// b now has a free port for the host; c will have one for the edge.
		mustDo(g.MoveHost(h, bj))
		mustDo(g.Connect(aj, cj))
		mv.hosts = append(mv.hosts, int32(h))
	}
	return true
}

// unswing reverses the swing images recorded in mv.hosts, the last first.
func (mv *move) unswing(g *hsgraph.Graph) {
	m := g.Switches()
	q := m / mv.sym
	for j := len(mv.hosts) - 1; j >= 0; j-- {
		aj, bj, cj := (mv.a+j*q)%m, (mv.b+j*q)%m, (mv.c+j*q)%m
		mustDo(g.Disconnect(aj, cj))
		mustDo(g.MoveHost(int(mv.hosts[j]), cj))
		mustDo(g.Connect(aj, bj))
	}
}

// trySwing samples a random swing operation.
func trySwing(g *hsgraph.Graph, sym int, rnd *rng.Rand, mv *move) bool {
	ne := g.NumEdges()
	m := g.Switches()
	if ne < 1 || m < 3 {
		return false
	}
	for attempt := 0; attempt < 8; attempt++ {
		a, b := g.Edge(rnd.Intn(ne))
		if rnd.Intn(2) == 0 {
			a, b = b, a
		}
		c := rnd.Intn(m)
		if applySwing(g, sym, a, b, c, mv) {
			return true
		}
	}
	return false
}

// propose applies one random move of the set's single-step operator to
// g: a swap for SwapOnly, a swing for the other sets.
func propose(g *hsgraph.Graph, moves MoveSet, sym int, rnd *rng.Rand, mv *move) bool {
	if moves == SwapOnly {
		return trySwap(g, sym, rnd, mv)
	}
	return trySwing(g, sym, rnd, mv)
}

// twoNeighborSwing implements the paper's 2-neighbor swing operation
// (Fig. 4), orbit-wide. decide is the annealer's verdict on the current
// (mutated) graph: it returns the candidate's exact energy and whether
// the move is accepted; rejecting verdicts may skip the energy (the
// returned value is only used on acceptance). The operation:
//
//	Step 1: apply swing(a, b, c); if accepted, keep it (1-neighbor).
//	Step 3: otherwise apply swing(d, c, b) — using the host that step 1
//	        moved onto b — yielding the swap of {a,b} and {d,c}; if
//	        accepted, keep it (2-neighbor). Otherwise restore the input.
//
// mv receives the step-1 and step-3 records. Returns whether a move was
// kept. mc (non-nil) receives the per-step attempt/accept telemetry:
// step 1 counts as a swing, step 3 as a counter-swing.
func twoNeighborSwing(g *hsgraph.Graph, sym int, rnd *rng.Rand,
	decide func() (int64, bool), mc *MoveCounters, mv *[2]move) (int64, bool) {

	if !trySwing(g, sym, rnd, &mv[0]) {
		return 0, false
	}
	mc.SwingAttempts++
	if e1, accepted := decide(); accepted {
		mc.SwingAccepts++
		return e1, true
	}
	// Step 3: swing(d, c, b) for a neighbour d of c (d != a, b), moving the
	// host back from b to c and producing the swap {a,c},{d,b}.
	// Preconditions of applySwing(d, c, b): edge {d,c} exists, b has a
	// host (it does: step 1 moved one onto every b_j), and {d,b} absent.
	a, b, c := mv[0].a, mv[0].b, mv[0].c
	neighbors := g.Neighbors(c)
	// Deterministic random scan order over c's neighbours.
	start := 0
	if len(neighbors) > 0 {
		start = rnd.Intn(len(neighbors))
	}
	for i := 0; i < len(neighbors); i++ {
		d := int(neighbors[(start+i)%len(neighbors)])
		if d == a || d == b {
			continue
		}
		if !applySwing(g, sym, d, c, b, &mv[1]) {
			continue
		}
		mc.CounterAttempts++
		if e2, accepted := decide(); accepted {
			mc.CounterAccepts++
			return e2, true
		}
		mv[1].undo(g)
		break // paper evaluates a single 2-neighbor candidate
	}
	mv[0].undo(g)
	return 0, false
}

func mustDo(err error) {
	if err != nil {
		panic("opt: move invariant violated: " + err.Error())
	}
}
