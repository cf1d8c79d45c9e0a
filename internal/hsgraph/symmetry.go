package hsgraph

import "fmt"

// This file implements the orbit-quotient side of the evaluation story:
// graphs closed under a cyclic group action evaluate with one bit-parallel
// BFS per source *orbit* instead of one per host-bearing switch.
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

// OrbitEvaluator evaluates sym-symmetric graphs by sweeping one
// bit-parallel BFS per host-bearing switch *orbit* and scaling the
// per-representative aggregates by the orbit size — ~sym× fewer sweeps
// than the generic Evaluator for bit-identical results. It wraps an
// Evaluator, sharing its worker pool, scratch buffers and shard merge, so
// the steady state stays allocation-free.
//
// Every call verifies the symmetry first and returns an error for inputs
// that break it: a quotient sweep of an asymmetric graph would silently
// mis-evaluate, so the contract is fail-loud. Like Evaluator, an
// OrbitEvaluator is not safe for concurrent use.
type OrbitEvaluator struct {
	ev  *Evaluator
	sym int
}

// NewOrbitEvaluator returns an OrbitEvaluator for graphs closed under a
// cyclic action of order sym, with the given shard worker count (values
// below 1 mean 1, as in NewEvaluator). sym values below 2 degrade to the
// generic single-orbit case and are accepted for uniformity.
func NewOrbitEvaluator(workers, sym int) *OrbitEvaluator {
	if sym < 1 {
		sym = 1
	}
	return &OrbitEvaluator{ev: NewEvaluator(workers), sym: sym}
}

// Workers returns the configured shard worker count.
func (oe *OrbitEvaluator) Workers() int { return oe.ev.Workers() }

// Symmetry returns the group order the evaluator quotients by.
func (oe *OrbitEvaluator) Symmetry() int { return oe.sym }

// Close releases the underlying pool goroutines. Idempotent.
func (oe *OrbitEvaluator) Close() { oe.ev.Close() }

// gather verifies the symmetry, collects the host-bearing orbit
// representatives into the wrapped evaluator's source list and returns
// the intra-switch contribution plus the total host-bearing switch count.
func (oe *OrbitEvaluator) gather(g *Graph) (total, pairs int64, diam, bearing int, allAttached bool, err error) {
	if err = VerifySymmetric(g, oe.sym); err != nil {
		return 0, 0, 0, 0, false, err
	}
	e := oe.ev
	e.srcs = e.srcs[:0]
	m := len(g.adj)
	q := m / oe.sym
	var attached int64
	for s := 0; s < m; s++ {
		k := int64(g.hosts[s])
		if k == 0 {
			continue
		}
		bearing++
		attached += k
		total += k * (k - 1) // 2 * C(k,2)
		pairs += k * (k - 1) / 2
		if k >= 2 && diam < 2 {
			diam = 2
		}
		if s < q {
			e.srcs = append(e.srcs, int32(s))
		}
	}
	return total, pairs, diam, bearing, attached == int64(g.n), nil
}

// Evaluate computes exactly Graph.Evaluate's Metrics (including the
// partial TotalPath of disconnected graphs) from representative sweeps
// only. It returns an error when g is not sym-symmetric.
func (oe *OrbitEvaluator) Evaluate(g *Graph) (Metrics, error) {
	total, pairs, diam, bearing, allAttached, err := oe.gather(g)
	if err != nil {
		return Metrics{}, err
	}
	if bearing == 0 {
		return g.finishMetrics(0, 0, 0, allAttached && g.n <= 1), nil
	}
	if bearing == 1 {
		return g.finishMetrics(total, pairs, diam, allAttached), nil
	}
	sym := int64(oe.sym)
	t := oe.ev.runSweep(g)
	if t.depth > 0 {
		diam = max(diam, t.depth+2)
	}
	// Orbit images contribute row aggregates identical to their
	// representative's, so the full ordered sums are sym times the
	// representative sums; connectivity compares the scaled ordered
	// reachable pair count against bearing·(bearing−1).
	connected := sym*t.reach == int64(bearing)*int64(bearing-1) && allAttached
	total += sym * t.sum / 2
	pairs += sym * t.wpairs / 2
	return g.finishMetrics(total, pairs, diam, connected), nil
}

// Energy is the hot-path variant: total host-pair path length plus a
// connectivity verdict, with a single serial BFS failing disconnecting
// inputs in O(edges) before any sweep. It returns an error when g is not
// sym-symmetric.
func (oe *OrbitEvaluator) Energy(g *Graph) (int64, bool, error) {
	total, _, _, bearing, allAttached, err := oe.gather(g)
	if err != nil {
		return 0, false, err
	}
	if bearing == 0 {
		return 0, allAttached && g.n <= 1, nil
	}
	if bearing == 1 {
		return total, allAttached, nil
	}
	if !allAttached || !oe.ev.connectedQuick(g, bearing) {
		return 0, false, nil
	}
	sym := int64(oe.sym)
	t := oe.ev.runSweep(g)
	connected := sym*t.reach == int64(bearing)*int64(bearing-1)
	return total + sym*t.sum/2, connected, nil
}
