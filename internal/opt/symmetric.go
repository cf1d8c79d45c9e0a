package opt

import (
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// Symmetry-preserving move operators: each is the corresponding Fig. 2/3/4
// operation applied simultaneously to a whole orbit of the cyclic group
// action σ(s) = (s + m/sym) mod m — the base move plus its sym-1 images.
// A graph that enters sym-symmetric leaves sym-symmetric, which is what
// lets the orbit-quotient evaluator (the orbit-mode
// hsgraph.IncrementalEvaluator) keep quotienting throughout an anneal.
//
// Pairs fixed by the half-turn σ^(sym/2) (endpoints m/2 apart, even sym
// only) have short orbits that the uniform image loop would double-touch;
// every operator rejects moves that would remove or create such an
// antipodal edge (hsgraph.Antipodal, the predicate the seed generator
// uses too). Image applications that collide (an image of the added
// edge already present, a port filled by an earlier image) roll back the
// whole orbit and report failure, leaving the graph untouched.

// symEdit accumulates the undo closures of a partially applied orbit move
// so it can either roll back in place or hand the caller one combined undo.
type symEdit struct {
	g     *hsgraph.Graph
	sym   int
	undos []undo
}

// rollback reverses every applied step, most recent first.
func (se *symEdit) rollback() {
	for i := len(se.undos) - 1; i >= 0; i-- {
		se.undos[i]()
	}
	se.undos = se.undos[:0]
}

// undo packages the accumulated steps as one reversal closure.
func (se *symEdit) undo() undo {
	undos := se.undos
	return func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
	}
}

// disconnectOrbit removes edge {a, b} and its images, recording undos.
// On a missing image it reports false with the partial steps still
// recorded (the caller rolls back).
func (se *symEdit) disconnectOrbit(a, b int) bool {
	m := se.g.Switches()
	q := m / se.sym
	for j := 0; j < se.sym; j++ {
		aj, bj := (a+j*q)%m, (b+j*q)%m
		if se.g.Disconnect(aj, bj) != nil {
			return false
		}
		se.undos = append(se.undos, func() { mustDo(se.g.Connect(aj, bj)) })
	}
	return true
}

// connectOrbit adds edge {a, b} and its images, recording undos.
func (se *symEdit) connectOrbit(a, b int) bool {
	m := se.g.Switches()
	q := m / se.sym
	for j := 0; j < se.sym; j++ {
		aj, bj := (a+j*q)%m, (b+j*q)%m
		if se.g.Connect(aj, bj) != nil {
			return false
		}
		se.undos = append(se.undos, func() { mustDo(se.g.Disconnect(aj, bj)) })
	}
	return true
}

// trySymSwap is trySwap under the group action: replace the edge orbits of
// {a,b}, {c,d} by those of {a,d}, {b,c}. Degrees and host attachments are
// untouched on every switch.
func trySymSwap(g *hsgraph.Graph, sym int, rnd *rng.Rand) (undo, bool) {
	ne := g.NumEdges()
	if ne < 2 {
		return nil, false
	}
	m := g.Switches()
	for attempt := 0; attempt < 8; attempt++ {
		i := rnd.Intn(ne)
		j := rnd.Intn(ne)
		if i == j {
			continue
		}
		a, b := g.Edge(i)
		c, d := g.Edge(j)
		if rnd.Intn(2) == 0 {
			c, d = d, c
		}
		if a == c || a == d || b == c || b == d {
			continue
		}
		if g.HasEdge(a, d) || g.HasEdge(b, c) {
			continue
		}
		if hsgraph.Antipodal(m, sym, a, b) || hsgraph.Antipodal(m, sym, c, d) ||
			hsgraph.Antipodal(m, sym, a, d) || hsgraph.Antipodal(m, sym, b, c) {
			continue
		}
		se := &symEdit{g: g, sym: sym}
		if se.disconnectOrbit(a, b) && se.disconnectOrbit(c, d) &&
			se.connectOrbit(a, d) && se.connectOrbit(b, c) {
			return se.undo(), true
		}
		se.rollback()
	}
	return nil, false
}

// applySymSwing performs swing(a, b, c) and its sym-1 images: every image
// edge {a_j, b_j} is rewired to {a_j, c_j} with one host moved from c_j to
// b_j, so host counts stay constant on every orbit. Fails (graph
// unchanged) on the standard swing preconditions, on antipodal {a,b} or
// {a,c}, and on any image collision.
func applySymSwing(g *hsgraph.Graph, sym, a, b, c int) (undo, bool) {
	m := g.Switches()
	if hsgraph.Antipodal(m, sym, a, b) || hsgraph.Antipodal(m, sym, a, c) {
		return nil, false
	}
	q := m / sym
	se := &symEdit{g: g, sym: sym}
	for j := 0; j < sym; j++ {
		aj, bj, cj := (a+j*q)%m, (b+j*q)%m, (c+j*q)%m
		u, ok := applySwing(g, aj, bj, cj)
		if !ok {
			se.rollback()
			return nil, false
		}
		se.undos = append(se.undos, u)
	}
	return se.undo(), true
}

// trySymSwing samples a random orbit swing.
func trySymSwing(g *hsgraph.Graph, sym int, rnd *rng.Rand) (undo, bool) {
	ne := g.NumEdges()
	m := g.Switches()
	if ne < 1 || m < 3 {
		return nil, false
	}
	for attempt := 0; attempt < 8; attempt++ {
		a, b := g.Edge(rnd.Intn(ne))
		if rnd.Intn(2) == 0 {
			a, b = b, a
		}
		c := rnd.Intn(m)
		if u, ok := applySymSwing(g, sym, a, b, c); ok {
			return u, true
		}
	}
	return nil, false
}

// symTwoNeighborSwing is the 2-neighbor swing operation (Fig. 4) under the
// group action, mirroring twoNeighborSwing move for move with orbit-wide
// swings. decide and mc have the same contracts.
func symTwoNeighborSwing(g *hsgraph.Graph, sym int, rnd *rng.Rand,
	decide func() (int64, bool), mc *MoveCounters) (int64, bool) {

	ne := g.NumEdges()
	m := g.Switches()
	if ne < 1 || m < 3 {
		return 0, false
	}
	var a, b, c int
	var undo1 undo
	found := false
	for attempt := 0; attempt < 8 && !found; attempt++ {
		a, b = g.Edge(rnd.Intn(ne))
		if rnd.Intn(2) == 0 {
			a, b = b, a
		}
		c = rnd.Intn(m)
		if u, ok := applySymSwing(g, sym, a, b, c); ok {
			undo1, found = u, true
		}
	}
	if !found {
		return 0, false
	}
	mc.SwingAttempts++
	if e1, accepted := decide(); accepted {
		mc.SwingAccepts++
		return e1, true
	}
	// Step 3: the counter-swing swing(d, c, b) applied orbit-wide — the
	// base images put a host on every b_j, so each image's precondition
	// holds unless its own collision rolls the orbit back.
	neighbors := g.Neighbors(c)
	start := 0
	if len(neighbors) > 0 {
		start = rnd.Intn(len(neighbors))
	}
	for i := 0; i < len(neighbors); i++ {
		d := int(neighbors[(start+i)%len(neighbors)])
		if d == a || d == b {
			continue
		}
		undo2, ok := applySymSwing(g, sym, d, c, b)
		if !ok {
			continue
		}
		mc.CounterAttempts++
		if e2, accepted := decide(); accepted {
			mc.CounterAccepts++
			return e2, true
		}
		undo2()
		break // a single 2-neighbor candidate, as in the generic operator
	}
	undo1()
	return 0, false
}
