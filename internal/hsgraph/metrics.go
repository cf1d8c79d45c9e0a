package hsgraph

import (
	"fmt"
	"math/bits"
)

// Metrics holds the evaluation of a host-switch graph.
type Metrics struct {
	HASPL     float64 // host-to-host average shortest path length
	Diameter  int     // host-to-host diameter
	TotalPath int64   // sum of ell(h_i, h_j) over connected unordered host pairs
	Connected bool    // false if some host pair is unreachable

	// ReachablePairs is the number of unordered host pairs joined by a
	// path. It equals C(n, 2) on connected graphs; on degraded graphs
	// (package fault) TotalPath/ReachablePairs is the h-ASPL over the
	// pairs that can still communicate. Unattached hosts reach nothing.
	ReachablePairs int64
}

// SwitchDistances returns the all-pairs shortest path matrix of the switch
// graph via per-source BFS (SwitchBFS). Unreachable pairs are -1. This is
// the reference (slow) implementation; Evaluate uses the bit-parallel
// variant.
func (g *Graph) SwitchDistances() [][]int32 {
	m := len(g.adj)
	dist := make([][]int32, m)
	queue := make([]int32, 0, m)
	for s := 0; s < m; s++ {
		dist[s] = make([]int32, m)
		g.SwitchBFS(s, dist[s], queue)
	}
	return dist
}

// SwitchBFS is the reference single-source BFS over the switch graph: it
// fills dist (len m) with the distances from switch s, -1 for
// unreachable switches, and returns the number of switches reached (s
// included). queue is scratch space; pass one of capacity m to keep the
// call allocation-free.
func (g *Graph) SwitchBFS(s int, dist []int32, queue []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue = append(queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return len(queue)
}

// EvaluateSlow computes the metrics with per-source BFS. It exists as an
// independently-coded oracle for property tests of Evaluate.
func (g *Graph) EvaluateSlow() Metrics {
	m := len(g.adj)
	var total, pairs int64
	diam := 0
	connected := true
	for _, s := range g.hostOf {
		if s == -1 {
			connected = false
		}
	}
	d := make([]int32, m)
	queue := make([]int32, 0, m)
	for a := 0; a < m; a++ {
		ka := int64(g.hosts[a])
		if ka == 0 {
			continue
		}
		g.SwitchBFS(a, d, queue)
		// Pairs within the same switch: distance 2.
		total += ka * (ka - 1) / 2 * 2
		pairs += ka * (ka - 1) / 2
		if ka >= 2 && diam < 2 {
			diam = 2
		}
		for b := a + 1; b < m; b++ {
			kb := int64(g.hosts[b])
			if kb == 0 {
				continue
			}
			if d[b] < 0 {
				connected = false
				continue
			}
			ell := int(d[b]) + 2
			total += ka * kb * int64(ell)
			pairs += ka * kb
			if ell > diam {
				diam = ell
			}
		}
	}
	return g.finishMetrics(total, pairs, diam, connected)
}

func (g *Graph) finishMetrics(total, reachable int64, diam int, connected bool) Metrics {
	pairs := int64(g.n) * int64(g.n-1) / 2
	met := Metrics{TotalPath: total, Diameter: diam, Connected: connected, ReachablePairs: reachable}
	if pairs > 0 && connected {
		met.HASPL = float64(total) / float64(pairs)
	}
	if !connected {
		met.HASPL = inf
		met.Diameter = -1
	}
	return met
}

const inf = 1e30 // sentinel h-ASPL for disconnected graphs

// Evaluate computes the metrics using bit-parallel BFS, 64 or 128 sources
// per sweep. For every host-bearing switch pair (a, b) it accumulates
// k_a * k_b * (d(a,b) + 2) plus 2 * C(k_a, 2) for intra-switch pairs. It
// is the serial Evaluator, built and dropped per call.
func (g *Graph) Evaluate() Metrics { return g.EvaluateParallel(1) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// HostDistance returns the number of edges on a shortest path between
// hosts a and b, or -1 if unreachable. It panics on out-of-range hosts and
// returns 0 for a == b.
func (g *Graph) HostDistance(a, b int) int {
	if a == b {
		return 0
	}
	sa, sb := g.hostOf[a], g.hostOf[b]
	if sa == -1 || sb == -1 {
		panic(fmt.Sprintf("hsgraph: HostDistance on unattached host (%d,%d)", a, b))
	}
	if sa == sb {
		return 2
	}
	m := len(g.adj)
	d := make([]int32, m)
	queue := make([]int32, 0, m)
	g.SwitchBFS(int(sa), d, queue)
	if d[sb] < 0 {
		return -1
	}
	return int(d[sb]) + 2
}

// RegularHASPLFromSwitchASPL applies the paper's Equation 1: for a
// k-regular host-switch graph with n hosts and m switches whose switch
// graph has ASPL a', the h-ASPL is a'(mn-n)/(mn-m) + 2. bounds applies
// it to the Moore ASPL bound for Eq. 2.
func RegularHASPLFromSwitchASPL(switchASPL float64, n, m int) float64 {
	if m <= 1 {
		return 2
	}
	nm := float64(n) * float64(m)
	return switchASPL*(nm-float64(n))/(nm-float64(m)) + 2
}

// SwitchASPL returns the ASPL and diameter of the switch graph alone
// (all switches, not weighted by hosts). ok is false if disconnected.
func (g *Graph) SwitchASPL() (aspl float64, diameter int, ok bool) {
	m := len(g.adj)
	if m < 2 {
		return 0, 0, true
	}
	var total int64
	var pairs int64
	diam := 0
	ok = true
	d := make([]int32, m)
	queue := make([]int32, 0, m)
	for s := 0; s < m; s++ {
		g.SwitchBFS(s, d, queue)
		for t := s + 1; t < m; t++ {
			if d[t] < 0 {
				ok = false
				continue
			}
			total += int64(d[t])
			pairs++
			if int(d[t]) > diam {
				diam = int(d[t])
			}
		}
	}
	if pairs == 0 {
		return 0, 0, ok
	}
	return float64(total) / float64(pairs), diam, ok
}
