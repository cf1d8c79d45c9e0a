package opt

import (
	"testing"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

func randomGraph(t *testing.T, n, m, r int, seed uint64) *hsgraph.Graph {
	t.Helper()
	g, err := hsgraph.RandomConnected(n, m, r, rng.New(seed))
	if err != nil {
		t.Fatalf("RandomConnected(%d,%d,%d): %v", n, m, r, err)
	}
	return g
}

func degreesOf(g *hsgraph.Graph) []int {
	out := make([]int, g.Switches())
	for s := range out {
		out[s] = g.Degree(s)
	}
	return out
}

func TestSwapPreservesStructure(t *testing.T) {
	g := randomGraph(t, 24, 8, 7, 1)
	rnd := rng.New(2)
	var mv move
	for i := 0; i < 200; i++ {
		before := g.Clone()
		degs := degreesOf(g)
		edges := g.NumEdges()
		if !trySwap(g, 1, rnd, &mv) {
			continue
		}
		if g.NumEdges() != edges {
			t.Fatal("swap changed edge count")
		}
		for s, d := range degreesOf(g) {
			if d != degs[s] {
				t.Fatalf("swap changed degree of switch %d: %d -> %d", s, degs[s], d)
			}
		}
		for h := 0; h < g.Order(); h++ {
			if g.SwitchOf(h) != before.SwitchOf(h) {
				t.Fatal("swap moved a host")
			}
		}
		if err := g.Validate(); err != nil && err != hsgraph.ErrNotConnected {
			t.Fatalf("swap broke invariants: %v", err)
		}
		// Undo must restore the labelled graph exactly.
		mv.undo(g)
		if !hsgraph.Equal(g, before) {
			t.Fatal("swap undo did not restore graph")
		}
	}
}

func TestSwingMovesOneHost(t *testing.T) {
	g := randomGraph(t, 24, 8, 7, 3)
	rnd := rng.New(4)
	moved := 0
	var mv move
	for i := 0; i < 200; i++ {
		before := g.Clone()
		if !trySwing(g, 1, rnd, &mv) {
			continue
		}
		moved++
		if g.NumEdges() != before.NumEdges() {
			t.Fatal("swing changed edge count")
		}
		// Exactly one host moved, k changes by +-1 on two switches.
		changedHosts := 0
		for h := 0; h < g.Order(); h++ {
			if g.SwitchOf(h) != before.SwitchOf(h) {
				changedHosts++
			}
		}
		if changedHosts != 1 {
			t.Fatalf("swing moved %d hosts, want 1", changedHosts)
		}
		plus, minus := 0, 0
		for s := 0; s < g.Switches(); s++ {
			switch g.HostCount(s) - before.HostCount(s) {
			case 1:
				plus++
			case -1:
				minus++
			case 0:
			default:
				t.Fatal("swing changed a host count by more than 1")
			}
			if g.Degree(s) != before.Degree(s) {
				t.Fatalf("swing changed total degree of switch %d", s)
			}
		}
		if plus != 1 || minus != 1 {
			t.Fatalf("swing host-count delta wrong: +%d/-%d", plus, minus)
		}
		mv.undo(g)
		if !hsgraph.Equal(g, before) {
			t.Fatal("swing undo did not restore graph")
		}
	}
	if moved == 0 {
		t.Fatal("no swing move ever applied")
	}
}

func TestApplySwingPreconditions(t *testing.T) {
	// Path 0-1-2, hosts on all switches.
	g, err := hsgraph.Path(6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var mv move
	if applySwing(g, 1, 0, 1, 0, &mv) {
		t.Fatal("swing with c == a accepted")
	}
	if applySwing(g, 1, 0, 1, 1, &mv) {
		t.Fatal("swing with c == b accepted")
	}
	if applySwing(g, 1, 0, 2, 1, &mv) {
		t.Fatal("swing on missing edge accepted")
	}
	// {a,c} already exists: a=1, b=0, c=2 -> new edge {1,2} exists.
	if applySwing(g, 1, 1, 0, 2, &mv) {
		t.Fatal("swing creating duplicate edge accepted")
	}
	// Valid: edge {0,1}, host on 2, new edge {0,2}.
	if !applySwing(g, 1, 0, 1, 2, &mv) {
		t.Fatal("valid swing rejected")
	}
	if !g.HasEdge(0, 2) || g.HasEdge(0, 1) {
		t.Fatal("swing edges wrong")
	}
	if g.HostCount(1) != 3 || g.HostCount(2) != 1 {
		t.Fatalf("swing host counts wrong: %d, %d", g.HostCount(1), g.HostCount(2))
	}
	mv.undo(g)
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("undo failed")
	}
}

func TestSwingOnEmptySwitch(t *testing.T) {
	// Swing must refuse when c has no host.
	g := hsgraph.New(2, 3, 4)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachHost(1, 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if applySwing(g, 1, 1, 0, 2, &move{}) {
		t.Fatal("swing with empty c accepted")
	}
}

func TestTwoNeighborSwingAlwaysReject(t *testing.T) {
	g := randomGraph(t, 24, 8, 7, 5)
	before := g.Clone()
	rnd := rng.New(6)
	reject := func() (int64, bool) { return g.Evaluate().TotalPath, false }
	var mv [2]move
	for i := 0; i < 50; i++ {
		if _, moved := twoNeighborSwing(g, 1, rnd, reject, &MoveCounters{}, &mv); moved {
			t.Fatal("move kept despite rejecting acceptor")
		}
		if !hsgraph.Equal(g, before) {
			t.Fatalf("iteration %d: graph changed after full rejection", i)
		}
	}
}

func TestTwoNeighborSwingAlwaysAccept(t *testing.T) {
	g := randomGraph(t, 24, 8, 7, 7)
	rnd := rng.New(8)
	accept := func() (int64, bool) { return g.Evaluate().TotalPath, true }
	kept := 0
	var mv [2]move
	for i := 0; i < 50; i++ {
		if _, moved := twoNeighborSwing(g, 1, rnd, accept, &MoveCounters{}, &mv); moved {
			kept++
		}
		if err := g.Validate(); err != nil && err != hsgraph.ErrNotConnected {
			t.Fatalf("invariants broken: %v", err)
		}
	}
	if kept == 0 {
		t.Fatal("no 2-neighbor swing ever kept")
	}
}

func TestTwoNeighborSwingSecondStepIsSwap(t *testing.T) {
	// With an acceptor that rejects the first candidate and accepts the
	// second, the net effect must preserve all host counts (a pure swap).
	g := randomGraph(t, 24, 8, 7, 9)
	rnd := rng.New(10)
	var mv [2]move
	for i := 0; i < 100; i++ {
		before := g.Clone()
		calls := 0
		_, moved := twoNeighborSwing(g, 1, rnd, func() (int64, bool) {
			calls++
			return g.Evaluate().TotalPath, calls == 2
		}, &MoveCounters{}, &mv)
		if !moved {
			continue
		}
		if calls != 2 {
			t.Fatalf("expected two candidates, saw %d", calls)
		}
		for s := 0; s < g.Switches(); s++ {
			if g.HostCount(s) != before.HostCount(s) {
				t.Fatal("2-neighbor acceptance changed host counts (not a swap)")
			}
		}
		return
	}
	t.Skip("never reached a 2-neighbor acceptance in 100 tries")
}

// TestMoveStreamsPinned pins what each operator does to a seeded anneal,
// on the exact path (m=12), on the cache path (m=72) and on orbit graphs
// of order 2, 3 and 4: the best graph's fingerprint and the accepted and
// per-operator move counts after 400 iterations. Every path scores alike
// (TestAnnealMatchesReference), so only a change in what the operators
// propose or how they undo can move these values.
func TestMoveStreamsPinned(t *testing.T) {
	cases := []struct {
		moves    MoveSet
		m, sym   int
		fp       string // first 16 hex digits of the best graph's Fingerprint
		accepted int
		mc       MoveCounters
	}{
		{SwapOnly, 12, 1, "1801ede9a34af1ad", 44, MoveCounters{399, 44, 0, 0, 0, 0}},
		{SwapOnly, 72, 1, "ceb3cfff2ed26605", 72, MoveCounters{400, 72, 0, 0, 0, 0}},
		// The orbit swap is undone by the inverse swap, orbit by orbit, as
		// the generic swap always was; the old orbit undo replayed its edit
		// log backwards, which left other edge-list and adjacency orders
		// and so other draws. These three streams are recorded from the
		// inverse-swap undo.
		{SwapOnly, 72, 2, "9d85496ba25f4d63", 98, MoveCounters{400, 98, 0, 0, 0, 0}},
		{SwapOnly, 72, 3, "7aa2784f6d6af5c3", 48, MoveCounters{400, 48, 0, 0, 0, 0}},
		{SwapOnly, 72, 4, "693cd0580422b51b", 65, MoveCounters{400, 65, 0, 0, 0, 0}},
		{SwingOnly, 12, 1, "166a9446fd1e2f1a", 35, MoveCounters{0, 0, 400, 35, 0, 0}},
		{SwingOnly, 72, 1, "4d26b725f0ff5f58", 80, MoveCounters{0, 0, 400, 80, 0, 0}},
		{SwingOnly, 72, 2, "25e7e72c78e8fd05", 71, MoveCounters{0, 0, 400, 71, 0, 0}},
		{SwingOnly, 72, 3, "55306a0e311e69db", 50, MoveCounters{0, 0, 400, 50, 0, 0}},
		{SwingOnly, 72, 4, "ba6bdf1fb5680c60", 63, MoveCounters{0, 0, 400, 63, 0, 0}},
		{TwoNeighborSwing, 12, 1, "5fe0882277bb9bcf", 73, MoveCounters{0, 0, 400, 46, 354, 27}},
		{TwoNeighborSwing, 72, 1, "01406fe42f79655a", 113, MoveCounters{0, 0, 400, 83, 317, 30}},
		{TwoNeighborSwing, 72, 2, "8ecca22b3602eb1c", 112, MoveCounters{0, 0, 400, 89, 311, 23}},
		{TwoNeighborSwing, 72, 3, "04bd0b94298c4fca", 105, MoveCounters{0, 0, 400, 70, 330, 35}},
		{TwoNeighborSwing, 72, 4, "03c87cbab852ab09", 109, MoveCounters{0, 0, 400, 77, 323, 32}},
	}
	for _, tc := range cases {
		start := pathStart(t, tc.m > 64, tc.sym, 5)
		g, res, err := Anneal(start, Options{Iterations: 400, Moves: tc.moves, Symmetry: tc.sym, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if fp := g.Fingerprint().String()[:16]; fp != tc.fp || res.Accepted != tc.accepted || res.Moves != tc.mc {
			t.Errorf("%v m=%d sym=%d: best %s, accepted %d, moves %+v; pinned %s, %d, %+v",
				tc.moves, tc.m, tc.sym, fp, res.Accepted, res.Moves, tc.fp, tc.accepted, tc.mc)
		}
	}
}

// TestAnnealMoveLoopAllocs: proposing, scoring and undoing a move
// allocates nothing once the loop's move records and the scorer's scratch
// have grown, so a run's allocations do not grow with its length. The
// orbit swap may allocate the error of an image collision it rolls back,
// which stays below one per iteration.
func TestAnnealMoveLoopAllocs(t *testing.T) {
	cases := []struct {
		moves  MoveSet
		m, sym int
		limit  float64 // allocations per extra iteration
	}{
		{SwapOnly, 12, 1, 0.01},
		{SwingOnly, 12, 1, 0.01},
		{TwoNeighborSwing, 12, 1, 0.01},
		{SwapOnly, 72, 1, 0.01},
		{SwingOnly, 72, 1, 0.01},
		{TwoNeighborSwing, 72, 1, 0.01},
		{SwingOnly, 72, 4, 0.01},
		{TwoNeighborSwing, 72, 4, 0.01},
		{SwapOnly, 72, 4, 1},
	}
	for _, tc := range cases {
		start := pathStart(t, tc.m > 64, tc.sym, 5)
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(2, func() {
				o := Options{Iterations: iters, Moves: tc.moves, Symmetry: tc.sym, Seed: 3, Workers: 1}
				if _, _, err := Anneal(start, o); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(1000), allocs(3000)
		if per := (long - short) / 2000; per >= tc.limit {
			t.Errorf("%v m=%d sym=%d: %.3f allocations per extra iteration (%.0f at 1000 iterations, %.0f at 3000), want < %g",
				tc.moves, tc.m, tc.sym, per, short, long, tc.limit)
		}
	}
}
