package hsgraph

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

func TestDistributeHostsEvenly(t *testing.T) {
	g := New(10, 4, 8)
	if err := DistributeHostsEvenly(g); err != nil {
		t.Fatal(err)
	}
	counts := []int{g.HostCount(0), g.HostCount(1), g.HostCount(2), g.HostCount(3)}
	want := []int{3, 3, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestRandomConnectedSaturates(t *testing.T) {
	rnd := rng.New(31)
	g, err := RandomConnected(20, 8, 6, rnd)
	if err != nil {
		t.Fatal(err)
	}
	// No two distinct non-adjacent switches may both have free ports.
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			if g.Degree(a) < 6 && g.Degree(b) < 6 && !g.HasEdge(a, b) {
				t.Fatalf("unsaturated pair (%d,%d)", a, b)
			}
		}
	}
}

func TestRandomConnectedInfeasible(t *testing.T) {
	if _, err := RandomConnected(100, 3, 5, rng.New(1)); err == nil {
		t.Fatal("infeasible parameters accepted")
	}
	if _, err := RandomConnected(10, 1, 5, rng.New(1)); err == nil {
		t.Fatal("10 hosts on one radix-5 switch accepted")
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	g1, err := RandomConnected(30, 10, 7, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomConnected(30, 10, 7, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g1, g2) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestRandomRegular(t *testing.T) {
	rnd := rng.New(4)
	g, err := RandomRegular(24, 8, 7, 4, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if g.SwitchDegree(s) != 4 {
			t.Fatalf("switch %d degree %d, want 4", s, g.SwitchDegree(s))
		}
		if g.HostCount(s) != 3 {
			t.Fatalf("switch %d hosts %d, want 3", s, g.HostCount(s))
		}
	}
}

func TestRandomRegularRejectsBadParams(t *testing.T) {
	rnd := rng.New(4)
	cases := []struct{ n, m, r, k int }{
		{25, 8, 7, 4},  // m does not divide n
		{24, 8, 6, 4},  // n/m + k > r
		{24, 7, 9, 3},  // m*k odd
		{24, 8, 20, 8}, // k >= m
		{24, 8, 7, 0},  // degree 0
	}
	for _, c := range cases {
		if _, err := RandomRegular(c.n, c.m, c.r, c.k, rnd); err == nil {
			t.Errorf("RandomRegular(%+v) accepted", c)
		}
	}
}

func TestFixtureBuilders(t *testing.T) {
	ring, err := Ring(12, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Validate(); err != nil {
		t.Fatalf("ring: %v", err)
	}
	if ring.NumEdges() != 6 {
		t.Fatalf("ring edges = %d", ring.NumEdges())
	}
	path, err := Path(12, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := path.Validate(); err != nil {
		t.Fatalf("path: %v", err)
	}
	if path.NumEdges() != 5 {
		t.Fatalf("path edges = %d", path.NumEdges())
	}
	star, err := Star(12, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := star.Validate(); err != nil {
		t.Fatalf("star: %v", err)
	}
	if star.SwitchDegree(0) != 5 {
		t.Fatalf("star hub degree = %d", star.SwitchDegree(0))
	}
	// Degenerate sizes.
	if _, err := Ring(4, 2, 4); err != nil {
		t.Fatalf("2-ring: %v", err)
	}
	if _, err := Ring(3, 1, 4); err != nil {
		t.Fatalf("1-ring: %v", err)
	}
}

// saturateRescan is SaturateEdges as it was before it dropped saturated
// endpoints in place: it rescans the whole free list after every edge
// it adds. It is the oracle the in-place version must match, edge for
// edge and RNG draw for RNG draw.
func saturateRescan(g *Graph, rnd *rng.Rand) {
	compact := func(free []int) []int {
		out := free[:0]
		for _, s := range free {
			if g.Degree(s) < g.Radix() {
				out = append(out, s)
			}
		}
		return out
	}
	m := g.Switches()
	free := make([]int, 0, m)
	for s := 0; s < m; s++ {
		if g.Degree(s) < g.Radix() {
			free = append(free, s)
		}
	}
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
		free = compact(free)
	}
	for {
		free = compact(free)
		added := false
		for i := 0; i < len(free) && !added; i++ {
			for j := i + 1; j < len(free); j++ {
				if !g.HasEdge(free[i], free[j]) {
					if g.Connect(free[i], free[j]) == nil {
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

// TestSaturateEdgesMatchesRescan pins the generator's output to the
// rescanning oracle: the same storage order (edge list, adjacency and
// host lists, via MarshalState) and the same RNG stream position after
// saturation, over many seeds and cells, the design cell included.
func TestSaturateEdgesMatchesRescan(t *testing.T) {
	cells := []struct{ n, m, r int }{
		{20, 8, 6}, {24, 8, 5}, {48, 16, 6}, {64, 20, 7}, {90, 30, 5},
		{256, 64, 10}, {512, 100, 12}, {1024, 195, 15}, {2, 2, 3}, {60, 4, 40},
	}
	seeds := uint64(40)
	if testing.Short() {
		seeds = 8
	}
	for _, c := range cells {
		for seed := uint64(1); seed <= seeds; seed++ {
			rnd := rng.New(seed)
			got, err := RandomConnected(c.n, c.m, c.r, rnd)
			if err != nil {
				t.Fatal(err)
			}
			ornd := rng.New(seed)
			want, err := randomSpanning(c.n, c.m, c.r, ornd)
			if err != nil {
				t.Fatal(err)
			}
			saturateRescan(want, ornd)
			if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
				t.Fatalf("n=%d m=%d r=%d seed %d: graph differs from the rescanning oracle", c.n, c.m, c.r, seed)
			}
			if rnd.State() != ornd.State() {
				t.Fatalf("n=%d m=%d r=%d seed %d: RNG stream position differs from the oracle", c.n, c.m, c.r, seed)
			}
		}
	}
}
