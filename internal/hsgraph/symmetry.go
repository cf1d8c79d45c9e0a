package hsgraph

import "fmt"

// This file holds the symmetry check behind orbit-quotient evaluation:
// graphs closed under a cyclic group action evaluate with one bit-parallel
// BFS per source *orbit* instead of one per host-bearing switch (the
// orbit-mode IncrementalEvaluator, NewOrbitIncrementalEvaluator).
//
// The group action of order sym on m switches (sym | m) is the cyclic
// shift σ(s) = (s + m/sym) mod m. Every switch orbit {s, σ(s), σ²(s), …}
// has exactly sym elements (j·(m/sym) ≡ 0 mod m only when sym | j), and
// the representatives are the switches in [0, m/sym). A graph is
// sym-symmetric when host counts are constant on every orbit and the edge
// set maps to itself under σ. Then d(σ(s), σ(t)) = d(s, t), so the row
// aggregates of a source equal those of its representative and the full
// ordered path sum is exactly sym times the representative sum — no
// approximation, bit-identical integer arithmetic.

// VerifySymmetric checks that g is closed under the cyclic group action
// σ(s) = (s + m/sym) mod m of order sym: the switch count must be a
// positive multiple of sym, host counts must be constant on every switch
// orbit, and every edge's image must be an edge. sym <= 1 is trivially
// satisfied. The check is O(m + edges).
func VerifySymmetric(g *Graph, sym int) error {
	if sym <= 1 {
		return nil
	}
	m := len(g.adj)
	if m == 0 || m%sym != 0 {
		return fmt.Errorf("hsgraph: switch count %d is not a positive multiple of symmetry %d", m, sym)
	}
	q := m / sym
	for s := 0; s < m; s++ {
		img := (s + q) % m
		if g.hosts[s] != g.hosts[img] {
			return fmt.Errorf("hsgraph: host counts break the order-%d symmetry: switch %d carries %d hosts but its image %d carries %d",
				sym, s, g.hosts[s], img, g.hosts[img])
		}
	}
	for i := 0; i < len(g.edges); i++ {
		a, b := g.Edge(i)
		if !g.HasEdge((a+q)%m, (b+q)%m) {
			return fmt.Errorf("hsgraph: edge {%d,%d} breaks the order-%d symmetry: image {%d,%d} is absent",
				a, b, sym, (a+q)%m, (b+q)%m)
		}
	}
	return nil
}

// Antipodal reports whether the switch pair {a, b} is fixed by the
// half-turn σ^(sym/2) of the order-sym action: |a-b| == m/2, possible only
// for even sym. Such a pair's edge orbit has sym/2 members instead of sym,
// so the symmetric seed generators never add one and the symmetric move
// operators never remove or create one: every edge orbit stays full-size
// and a move can treat all sym images uniformly. Both must use this one
// predicate.
func Antipodal(m, sym, a, b int) bool {
	if sym%2 != 0 {
		return false
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return 2*diff == m
}
