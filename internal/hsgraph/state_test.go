package hsgraph

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// sameStorage compares the full order-sensitive observable surface of two
// graphs: dimensions, edge list order, adjacency list order, host list
// order.
func sameStorage(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Order() != b.Order() || a.Switches() != b.Switches() || a.Radix() != b.Radix() {
		t.Fatal("dimensions differ")
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < a.NumEdges(); i++ {
		au, av := a.Edge(i)
		bu, bv := b.Edge(i)
		if au != bu || av != bv {
			t.Fatalf("edge %d differs: {%d,%d} vs {%d,%d}", i, au, av, bu, bv)
		}
	}
	for s := 0; s < a.Switches(); s++ {
		an, bn := a.Neighbors(s), b.Neighbors(s)
		if len(an) != len(bn) {
			t.Fatalf("switch %d neighbour counts differ", s)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("switch %d neighbour order differs at %d: %d vs %d", s, i, an[i], bn[i])
			}
		}
		ah, bh := a.HostsOn(s), b.HostsOn(s)
		if len(ah) != len(bh) {
			t.Fatalf("switch %d host counts differ", s)
		}
		for i := range ah {
			if ah[i] != bh[i] {
				t.Fatalf("switch %d host order differs at %d: %d vs %d", s, i, ah[i], bh[i])
			}
		}
	}
}

// mutate scrambles the internal storage order the way an annealing run
// does: random disconnect/reconnect pairs and host moves, ending in a
// graph whose edge, adjacency and host lists are far from insertion
// order.
func mutate(t *testing.T, g *Graph, rnd *rng.Rand, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		if ne := g.NumEdges(); ne >= 2 {
			a, b := g.Edge(rnd.Intn(ne))
			c, d := g.Edge(rnd.Intn(ne))
			if a != c && a != d && b != c && b != d && !g.HasEdge(a, d) && !g.HasEdge(b, c) {
				for _, err := range []error{
					g.Disconnect(a, b), g.Disconnect(c, d),
					g.Connect(a, d), g.Connect(b, c),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		h := rnd.Intn(g.Order())
		to := rnd.Intn(g.Switches())
		from := g.SwitchOf(h)
		if to != from && g.Degree(to) < g.Radix() {
			if err := g.MoveHost(h, to); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStateRoundTripPreservesOrder(t *testing.T) {
	rnd := rng.New(11)
	g, err := RandomConnected(48, 12, 8, rnd)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, g, rnd, 500)

	restored, err := UnmarshalState(g.MarshalState())
	if err != nil {
		t.Fatal(err)
	}
	sameStorage(t, g, restored)
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}

	// The restored graph must keep behaving identically under further
	// mutation (its bookkeeping maps were rebuilt, not copied).
	r1, r2 := rng.New(5), rng.New(5)
	mutate(t, g, r1, 100)
	mutate(t, restored, r2, 100)
	sameStorage(t, g, restored)
}

// TestCopyFromPreservesOrder: CopyFrom into a graph of another shape, and
// again into one already holding a graph, reproduces Clone's storage order
// and state bytes, stays independent of its source under further
// mutation, and invalidates an evaluator attached to the destination.
func TestCopyFromPreservesOrder(t *testing.T) {
	rnd := rng.New(29)
	dst, err := RandomConnected(96, 30, 10, rnd)
	if err != nil {
		t.Fatal(err)
	}
	ie := newCache(t, 1, 1)
	ie.Energy(dst)
	for _, shape := range [][3]int{{96, 30, 10}, {48, 12, 8}, {120, 40, 9}} {
		g, err := RandomConnected(shape[0], shape[1], shape[2], rnd)
		if err != nil {
			t.Fatal(err)
		}
		mutate(t, g, rnd, 300)
		// The second copy lands on a graph a few moves away, where only
		// the changed edge positions are re-indexed.
		for _, steps := range []int{0, 3} {
			mutate(t, g, rnd, steps)
			dst.CopyFrom(g)
			sameStorage(t, g, dst)
			if len(dst.posInList) != len(dst.edges) {
				t.Fatalf("shape %v: %d indexed edges, %d edges", shape, len(dst.posInList), len(dst.edges))
			}
			for i, key := range dst.edges {
				if dst.posInList[key] != int32(i) {
					t.Fatalf("shape %v: edge %v indexed at %d, stored at %d", shape, key, dst.posInList[key], i)
				}
			}
			if !bytes.Equal(g.MarshalState(), dst.MarshalState()) {
				t.Fatalf("shape %v: CopyFrom state bytes differ from the source", shape)
			}
		}
		if e, _ := ie.Energy(dst); e != g.Evaluate().TotalPath {
			t.Fatalf("shape %v: evaluator attached to the destination kept its stale cache", shape)
		}
		r1, r2 := rng.New(5), rng.New(5)
		mutate(t, g, r1, 100)
		mutate(t, dst, r2, 100)
		sameStorage(t, g, dst)
	}
}

func TestUnmarshalStateRejectsCorruption(t *testing.T) {
	g, err := RandomConnected(16, 6, 6, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	blob := g.MarshalState()
	if _, err := UnmarshalState(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalState(blob[:n]); err == nil {
			t.Fatalf("accepted %d/%d-byte prefix", n, len(blob))
		}
	}
}

// FuzzUnmarshalState: arbitrary bytes must produce a valid graph or an
// error — never a panic, never a graph violating the package invariants.
func FuzzUnmarshalState(f *testing.F) {
	g, err := RandomConnected(16, 6, 6, rng.New(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g.MarshalState())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalState(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
	})
}
