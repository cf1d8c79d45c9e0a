package hsgraph

import (
	"fmt"

	"repro/internal/rng"
)

// DistributeHostsEvenly attaches the graph's n hosts to its m switches as
// evenly as possible: the first n mod m switches receive ceil(n/m) hosts and
// the rest floor(n/m). All hosts must currently be unattached.
func DistributeHostsEvenly(g *Graph) error {
	n, m := g.Order(), g.Switches()
	h := 0
	for s := 0; s < m; s++ {
		k := n / m
		if s < n%m {
			k++
		}
		for i := 0; i < k; i++ {
			if err := g.AttachHost(h, s); err != nil {
				return err
			}
			h++
		}
	}
	return nil
}

// RandomConnected builds a random host-switch graph with n hosts spread
// evenly over m switches, a random spanning tree over the switches, and
// then random extra switch-switch edges until no two non-adjacent switches
// both have free ports (saturated). Saturation matters because the paper's
// swap and swing operations preserve the edge count: the search explores
// only graphs with as many switch-switch edges as the initial solution.
func RandomConnected(n, m, r int, rnd *rng.Rand) (*Graph, error) {
	g, err := randomSpanning(n, m, r, rnd)
	if err != nil {
		return nil, err
	}
	SaturateEdges(g, rnd)
	return g, nil
}

// randomSpanning is RandomConnected before saturation: a random path
// over the switches with the hosts filled round-robin.
func randomSpanning(n, m, r int, rnd *rng.Rand) (*Graph, error) {
	if !Feasible(n, m, r) {
		return nil, fmt.Errorf("hsgraph: no connected host-switch graph with n=%d m=%d r=%d exists", n, m, r)
	}
	g := New(n, m, r)
	// Spanning structure: a path over a random permutation of the switches.
	// A path consumes the fewest ports per switch (at most 2), leaving the
	// most room for hosts; extra random edges are added afterwards.
	if m > 1 {
		order := rnd.Perm(m)
		for i := 0; i+1 < m; i++ {
			if err := g.Connect(order[i], order[i+1]); err != nil {
				return nil, err
			}
		}
	}
	// Round-robin host fill: one host per pass per switch with a free port,
	// keeping the distribution as even as the path structure allows.
	h := 0
	for h < n {
		progress := false
		for s := 0; s < m && h < n; s++ {
			if g.Degree(s) < r {
				if err := g.AttachHost(h, s); err != nil {
					return nil, err
				}
				h++
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("hsgraph: ran out of ports placing host %d (n=%d m=%d r=%d)", h, n, m, r)
		}
	}
	return g, nil
}

// Feasible reports whether any connected host-switch graph with n hosts,
// m switches and radix r exists: a spanning tree over the switches uses
// 2(m-1) ports, so n <= m*r - 2(m-1) is required (n <= r when m == 1).
func Feasible(n, m, r int) bool {
	if n < 1 || m < 1 || r < 1 {
		return false
	}
	if m == 1 {
		return n <= r
	}
	return n <= m*r-2*(m-1)
}

// SaturateEdges adds random switch-switch edges until no two distinct,
// non-adjacent switches both have a free port.
func SaturateEdges(g *Graph, rnd *rng.Rand) {
	m := g.Switches()
	free := make([]int, 0, m)
	for s := 0; s < m; s++ {
		if g.Degree(s) < g.Radix() {
			free = append(free, s)
		}
	}
	// Randomized phase: cheap and yields uniform-ish fills.
	misses := 0
	for len(free) >= 2 && misses < 32*m {
		i := rnd.Intn(len(free))
		j := rnd.Intn(len(free))
		if i == j {
			misses++
			continue
		}
		a, b := free[i], free[j]
		if g.HasEdge(a, b) || g.Connect(a, b) != nil {
			misses++
			continue
		}
		misses = 0
		free = dropSaturated(g, free, i, j)
	}
	// Deterministic sweep to finish off any remaining feasible pair.
	for {
		added := false
		for i := 0; i < len(free) && !added; i++ {
			for j := i + 1; j < len(free); j++ {
				if !g.HasEdge(free[i], free[j]) {
					if g.Connect(free[i], free[j]) == nil {
						free = dropSaturated(g, free, i, j)
						added = true
						break
					}
				}
			}
		}
		if !added {
			return
		}
	}
}

// dropSaturated removes free[i] and free[j], the endpoints of the edge
// just added, from the free list when they have no port left, keeping
// the order of the rest. No other switch's degree changed, so the list
// stays exactly the unsaturated switches without rescanning it.
func dropSaturated(g *Graph, free []int, i, j int) []int {
	if i < j {
		i, j = j, i // drop the later slot first so the earlier index holds
	}
	if g.Degree(free[i]) >= g.Radix() {
		free = append(free[:i], free[i+1:]...)
	}
	if g.Degree(free[j]) >= g.Radix() {
		free = append(free[:j], free[j+1:]...)
	}
	return free
}

// RandomRegular builds a k-regular host-switch graph: m switches each with
// exactly k switch neighbours and exactly n/m hosts. Requires m divides n,
// n/m + k <= r, and m*k even. The switch graph is sampled with the
// configuration (stub-matching) model, restarting on clashes, and resampled
// until connected.
func RandomRegular(n, m, r, k int, rnd *rng.Rand) (*Graph, error) {
	if m <= 0 || n%m != 0 {
		return nil, fmt.Errorf("hsgraph: RandomRegular requires m | n (n=%d, m=%d)", n, m)
	}
	if n/m+k > r {
		return nil, fmt.Errorf("hsgraph: hosts-per-switch %d + degree %d exceeds radix %d", n/m, k, r)
	}
	if m*k%2 != 0 {
		return nil, fmt.Errorf("hsgraph: m*k must be even (m=%d, k=%d)", m, k)
	}
	if k >= m {
		return nil, fmt.Errorf("hsgraph: degree %d must be below switch count %d", k, m)
	}
	if k < 1 && m > 1 {
		return nil, fmt.Errorf("hsgraph: degree 0 disconnects %d switches", m)
	}
	// The configuration (stub-matching) model is near-uniform but its
	// success probability collapses for dense k; try it a bounded number
	// of times, then fall back to a randomized circulant, which always
	// succeeds.
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := tryRegular(n, m, r, k, rnd)
		if ok && g.HostsConnected() {
			return g, nil
		}
	}
	return circulantRegular(n, m, r, k, rnd)
}

// circulantRegular builds a k-regular circulant graph (ring chords
// 1..k/2, plus the antipodal chord for odd k) and randomizes it with
// connectivity-preserving edge swaps.
func circulantRegular(n, m, r, k int, rnd *rng.Rand) (*Graph, error) {
	g := New(n, m, r)
	if err := DistributeHostsEvenly(g); err != nil {
		return nil, err
	}
	for d := 1; d <= k/2; d++ {
		for s := 0; s < m; s++ {
			t := (s + d) % m
			if s != t && !g.HasEdge(s, t) {
				if err := g.Connect(s, t); err != nil {
					return nil, err
				}
			}
		}
	}
	if k%2 == 1 {
		// m is even here (m*k even with odd k).
		for s := 0; s < m/2; s++ {
			if err := g.Connect(s, s+m/2); err != nil {
				return nil, err
			}
		}
	}
	for s := 0; s < m; s++ {
		if g.SwitchDegree(s) != k {
			return nil, fmt.Errorf("hsgraph: circulant construction gave degree %d at switch %d, want %d (m=%d)", g.SwitchDegree(s), s, k, m)
		}
	}
	// Randomize: batches of double-edge swaps, rolling back any batch that
	// disconnects the graph.
	target := 10 * m * k
	for done := 0; done < target; {
		snapshot := g.Clone()
		batch := m
		applied := 0
		for i := 0; i < batch*4 && applied < batch; i++ {
			if swapRandomEdges(g, rnd) {
				applied++
			}
		}
		if g.HostsConnected() {
			done += applied
		} else {
			g = snapshot
		}
	}
	return g, nil
}

// swapRandomEdges performs one random degree-preserving 2-opt swap on the
// switch graph; returns false if the sampled move was invalid.
func swapRandomEdges(g *Graph, rnd *rng.Rand) bool {
	ne := g.NumEdges()
	if ne < 2 {
		return false
	}
	i, j := rnd.Intn(ne), rnd.Intn(ne)
	if i == j {
		return false
	}
	a, b := g.Edge(i)
	c, d := g.Edge(j)
	if rnd.Intn(2) == 0 {
		c, d = d, c
	}
	if a == c || a == d || b == c || b == d || g.HasEdge(a, d) || g.HasEdge(b, c) {
		return false
	}
	if g.Disconnect(a, b) != nil || g.Disconnect(c, d) != nil {
		panic("hsgraph: inconsistent edge set in swapRandomEdges")
	}
	if g.Connect(a, d) != nil || g.Connect(b, c) != nil {
		panic("hsgraph: swap reconnection failed")
	}
	return true
}

func tryRegular(n, m, r, k int, rnd *rng.Rand) (*Graph, bool) {
	g := New(n, m, r)
	if err := DistributeHostsEvenly(g); err != nil {
		return nil, false
	}
	stubs := make([]int32, 0, m*k)
	for s := 0; s < m; s++ {
		for i := 0; i < k; i++ {
			stubs = append(stubs, int32(s))
		}
	}
	rnd.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i < len(stubs); i += 2 {
		a, b := int(stubs[i]), int(stubs[i+1])
		if a == b || g.HasEdge(a, b) {
			return nil, false
		}
		if err := g.Connect(a, b); err != nil {
			return nil, false
		}
	}
	return g, true
}

// Ring builds a host-switch graph whose m switches form a cycle (or a
// single edge for m = 2, a lone switch for m = 1), with hosts distributed
// evenly. Useful as a deterministic fixture.
func Ring(n, m, r int) (*Graph, error) {
	g := New(n, m, r)
	if err := DistributeHostsEvenly(g); err != nil {
		return nil, err
	}
	if m == 2 {
		if err := g.Connect(0, 1); err != nil {
			return nil, err
		}
		return g, nil
	}
	for s := 0; s < m && m > 1; s++ {
		if err := g.Connect(s, (s+1)%m); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Path builds a host-switch graph whose switches form a simple path.
func Path(n, m, r int) (*Graph, error) {
	g := New(n, m, r)
	if err := DistributeHostsEvenly(g); err != nil {
		return nil, err
	}
	for s := 0; s+1 < m; s++ {
		if err := g.Connect(s, s+1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Star builds one hub switch connected to all other switches; hosts are
// distributed evenly over all switches.
func Star(n, m, r int) (*Graph, error) {
	g := New(n, m, r)
	if err := DistributeHostsEvenly(g); err != nil {
		return nil, err
	}
	for s := 1; s < m; s++ {
		if err := g.Connect(0, s); err != nil {
			return nil, err
		}
	}
	return g, nil
}
