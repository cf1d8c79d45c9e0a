package topo

import (
	"fmt"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// g-symmetric seed generation (à la the reference implementation's
// ORP_Generate_random_s): random host-switch graphs closed under the
// cyclic group action σ(s) = (s + m/sym) mod m, so that the orbit-quotient
// evaluator (the orbit-mode hsgraph.IncrementalEvaluator) can sweep one
// BFS per switch orbit instead of one per switch. Host counts
// are constant on every orbit and every edge is added together with its
// sym-1 images.
//
// Edges fixed by the half-turn σ^(sym/2) — endpoints exactly m/2 apart,
// possible only for even sym — have orbits of size sym/2 rather than sym.
// The generators never add such "antipodal" edges and opt's symmetric
// move operators never create them, so every edge orbit stays full-size
// and a move can treat all sym images uniformly.

// isAntipodal reports whether the switch pair {a, b} is fixed by the
// half-turn σ^(sym/2): |a-b| == m/2, possible only for even sym.
func isAntipodal(m, sym, a, b int) bool {
	if sym%2 != 0 {
		return false
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return 2*diff == m
}

// checkSymmetric validates the shared (n, m, sym) constraints of the
// symmetric generators.
func checkSymmetric(n, m, sym int) error {
	if sym < 2 {
		return fmt.Errorf("topo: symmetry order must be >= 2, got %d", sym)
	}
	if m < 3 || m%sym != 0 {
		return fmt.Errorf("topo: switch count %d must be a multiple of symmetry %d (and >= 3)", m, sym)
	}
	if (n%m)%sym != 0 {
		return fmt.Errorf("topo: cannot spread %d hosts over %d switches orbit-evenly: the remainder %d is not a multiple of symmetry %d (hosts must be constant on every orbit)",
			n, m, n%m, sym)
	}
	return nil
}

// distributeHostsSymmetric attaches base = n/m hosts to every switch plus
// one extra host to each switch of the first (n%m)/sym orbits, so host
// counts are constant on every orbit. checkSymmetric must have passed.
func distributeHostsSymmetric(g *hsgraph.Graph, sym int) error {
	n, m := g.Order(), g.Switches()
	q := m / sym
	extraOrbits := (n % m) / sym
	h := 0
	for s := 0; s < m; s++ {
		k := n / m
		if s%q < extraOrbits {
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

// orbitConnect adds edge {a, b} and its sym-1 images. On any failure
// (duplicate edge, port exhaustion) the already-added images are removed
// and false is returned, leaving the graph unchanged. The pair must not
// be antipodal (the orbit would self-collide).
func orbitConnect(g *hsgraph.Graph, sym, a, b int) bool {
	m := g.Switches()
	q := m / sym
	for j := 0; j < sym; j++ {
		aj, bj := (a+j*q)%m, (b+j*q)%m
		if err := g.Connect(aj, bj); err != nil {
			for i := j - 1; i >= 0; i-- {
				ai, bi := (a+i*q)%m, (b+i*q)%m
				if err2 := g.Disconnect(ai, bi); err2 != nil {
					panic("topo: orbit connect rollback failed: " + err2.Error())
				}
			}
			return false
		}
	}
	return true
}

// orbitDisconnect removes edge {a, b} and its sym-1 images, restoring the
// already-removed images and returning false on any failure.
func orbitDisconnect(g *hsgraph.Graph, sym, a, b int) bool {
	m := g.Switches()
	q := m / sym
	for j := 0; j < sym; j++ {
		aj, bj := (a+j*q)%m, (b+j*q)%m
		if err := g.Disconnect(aj, bj); err != nil {
			for i := j - 1; i >= 0; i-- {
				ai, bi := (a+i*q)%m, (b+i*q)%m
				if err2 := g.Connect(ai, bi); err2 != nil {
					panic("topo: orbit disconnect rollback failed: " + err2.Error())
				}
			}
			return false
		}
	}
	return true
}

// mustOrbit applies an orbit edit that restores a state the graph held
// moments ago, so it cannot legitimately fail.
func mustOrbit(ok bool, what string) {
	if !ok {
		panic("topo: symmetric rollback failed to " + what)
	}
}

// RandomSymmetric builds a random connected saturated host-switch graph
// closed under the cyclic group action of order sym (sym | m): the
// symmetric counterpart of hsgraph.RandomConnected, and the standard
// annealing start for -symmetry runs. Hosts are spread orbit-evenly
// (which requires sym | n mod m), a full ring guarantees connectivity,
// and random edge orbits are added until no further orbit fits — so the
// graph is saturated within the symmetric subspace (a free-port pair may
// remain if only an asymmetric edge could join it). Equal seeds give
// equal graphs.
func RandomSymmetric(n, m, r, sym int, seed uint64) (*hsgraph.Graph, error) {
	if err := checkSymmetric(n, m, sym); err != nil {
		return nil, err
	}
	perSwitch := (n + m - 1) / m
	if perSwitch+2 > r {
		return nil, fmt.Errorf("topo: radix %d too small for %d hosts/switch plus the 2 ring links", r, perSwitch)
	}
	rnd := rng.New(seed)
	g := hsgraph.New(n, m, r)
	if err := distributeHostsSymmetric(g, sym); err != nil {
		return nil, err
	}
	// Full ring {s, s+1}: orbit-closed (a union of m/sym edge orbits),
	// never antipodal for m >= 3, and makes every switch reachable.
	for s := 0; s < m; s++ {
		if err := g.Connect(s, (s+1)%m); err != nil {
			return nil, err
		}
	}
	// Pairs with a full endpoint are skipped before orbitConnect: its
	// first Connect would fail anyway, and the saturation sweep below
	// offers m/sym·m pairs, nearly all of them full, so building and
	// discarding Connect's error per pair would dominate generation.
	addOrbit := func(a, b int) bool {
		if a == b || g.Degree(a) >= r || g.Degree(b) >= r || isAntipodal(m, sym, a, b) || g.HasEdge(a, b) {
			return false
		}
		return orbitConnect(g, sym, a, b)
	}
	// Randomized fill, then a deterministic representative sweep to
	// saturate the subspace (every edge orbit has a representative with
	// one endpoint in [0, m/sym)).
	misses := 0
	for misses < 8*m {
		if addOrbit(rnd.Intn(m), rnd.Intn(m)) {
			misses = 0
		} else {
			misses++
		}
	}
	for a := 0; a < m/sym; a++ {
		for b := 0; b < m; b++ {
			addOrbit(a, b)
		}
	}
	if !g.HostsConnected() {
		return nil, fmt.Errorf("topo: symmetric generator produced a disconnected graph (n=%d, m=%d, r=%d, sym=%d)", n, m, r, sym)
	}
	if err := hsgraph.VerifySymmetric(g, sym); err != nil {
		return nil, err
	}
	return g, nil
}

// symSwapRandomEdges attempts one degree-preserving double-edge swap
// applied to a whole orbit: pick edges {a,b} and {c,d}, replace them (and
// all their images) by {a,d} and {b,c} (and all theirs). Swaps touching
// or creating antipodal edges are rejected, as are collisions anywhere in
// the four orbits; the graph is unchanged on rejection.
func symSwapRandomEdges(g *hsgraph.Graph, sym int, rnd *rng.Rand) bool {
	ne := g.NumEdges()
	if ne < 2 {
		return false
	}
	m := g.Switches()
	a, b := g.Edge(rnd.Intn(ne))
	c, d := g.Edge(rnd.Intn(ne))
	if rnd.Intn(2) == 1 {
		c, d = d, c
	}
	if a == c || a == d || b == c || b == d {
		return false
	}
	if g.HasEdge(a, d) || g.HasEdge(b, c) {
		return false
	}
	if isAntipodal(m, sym, a, b) || isAntipodal(m, sym, c, d) ||
		isAntipodal(m, sym, a, d) || isAntipodal(m, sym, b, c) {
		return false
	}
	if !orbitDisconnect(g, sym, a, b) {
		return false
	}
	if !orbitDisconnect(g, sym, c, d) {
		mustOrbit(orbitConnect(g, sym, a, b), "restore {a,b}")
		return false
	}
	if !orbitConnect(g, sym, a, d) {
		mustOrbit(orbitConnect(g, sym, c, d), "restore {c,d}")
		mustOrbit(orbitConnect(g, sym, a, b), "restore {a,b}")
		return false
	}
	if !orbitConnect(g, sym, b, c) {
		mustOrbit(orbitDisconnect(g, sym, a, d), "remove {a,d}")
		mustOrbit(orbitConnect(g, sym, c, d), "restore {c,d}")
		mustOrbit(orbitConnect(g, sym, a, b), "restore {a,b}")
		return false
	}
	return true
}

// RandomRegularSymmetric builds a connected switch-degree-regular
// host-switch graph closed under the order-sym cyclic action: the
// symmetric counterpart of hsgraph.RandomRegular, used as the ODP
// (graph-golf) start. The base is a circulant (chords 1..degree/2 plus,
// for odd degree, the antipodal perfect matching — whose edges are fixed
// by the half-turn and therefore never moved afterwards), randomized by
// batches of orbit double-edge swaps with connectivity-checked rollback.
// Requires m | n·(well, sym | m and sym | n mod m), degree < m, and
// m*degree even.
func RandomRegularSymmetric(n, m, r, degree, sym int, seed uint64) (*hsgraph.Graph, error) {
	if err := checkSymmetric(n, m, sym); err != nil {
		return nil, err
	}
	if (n+m-1)/m+degree > r {
		return nil, fmt.Errorf("topo: hosts-per-switch %d + degree %d exceeds radix %d", (n+m-1)/m, degree, r)
	}
	if m*degree%2 != 0 {
		return nil, fmt.Errorf("topo: m*degree must be even (m=%d, degree=%d)", m, degree)
	}
	if degree >= m {
		return nil, fmt.Errorf("topo: degree %d must be below switch count %d", degree, m)
	}
	if degree < 2 && m > 2 {
		return nil, fmt.Errorf("topo: degree %d cannot connect %d switches", degree, m)
	}
	rnd := rng.New(seed)
	g := hsgraph.New(n, m, r)
	if err := distributeHostsSymmetric(g, sym); err != nil {
		return nil, err
	}
	for dd := 1; dd <= degree/2; dd++ {
		for s := 0; s < m; s++ {
			t := (s + dd) % m
			if s != t && !g.HasEdge(s, t) {
				if err := g.Connect(s, t); err != nil {
					return nil, err
				}
			}
		}
	}
	if degree%2 == 1 {
		// m is even here (m*degree even with odd degree).
		for s := 0; s < m/2; s++ {
			if err := g.Connect(s, s+m/2); err != nil {
				return nil, err
			}
		}
	}
	for s := 0; s < m; s++ {
		if g.SwitchDegree(s) != degree {
			return nil, fmt.Errorf("topo: symmetric circulant gave degree %d at switch %d, want %d (m=%d)", g.SwitchDegree(s), s, degree, m)
		}
	}
	// Randomize in batches of orbit swaps, rolling back any batch that
	// disconnects the graph (mirrors hsgraph's circulant randomization).
	target := 10 * m * degree
	for done := 0; done < target; {
		snapshot := g.Clone()
		batch := m
		applied := 0
		for i := 0; i < batch*4 && applied < batch; i++ {
			if symSwapRandomEdges(g, sym, rnd) {
				applied++
			}
		}
		if g.HostsConnected() {
			done += applied
			if applied == 0 {
				break // no legal orbit swap exists; keep the circulant
			}
		} else {
			g = snapshot
		}
	}
	if !g.HostsConnected() {
		return nil, fmt.Errorf("topo: symmetric regular generator produced a disconnected graph (m=%d, degree=%d, sym=%d)", m, degree, sym)
	}
	if err := hsgraph.VerifySymmetric(g, sym); err != nil {
		return nil, err
	}
	return g, nil
}
