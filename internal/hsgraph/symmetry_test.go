package hsgraph

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// symTestGraph builds a random sym-symmetric host-switch graph without
// going through the topo generators (hsgraph cannot import topo): hosts
// are spread orbit-invariantly and edges are added and removed in whole
// σ-orbits, which keeps the edge set closed under the group action.
// Antipodal orbits (half-size, fixed by the half-turn) are deliberately
// allowed — they are σ-closed too, and the evaluator must handle them.
// Roughly a quarter of the samples leave hosts unattached and a third
// drop orbits until the graph may disconnect, so both Metrics regimes
// appear.
func symTestGraph(tb testing.TB, rnd *rng.Rand) (*Graph, int) {
	tb.Helper()
	syms := []int{2, 3, 4, 6}
	sym := syms[rnd.Intn(len(syms))]
	q := 1 + rnd.Intn(10)
	m := sym * q
	const r = 24
	hk := make([]int, q)
	perOrbit := 0
	for i := range hk {
		hk[i] = rnd.Intn(3)
		perOrbit += hk[i]
	}
	attached := sym * perOrbit
	n := attached
	if rnd.Intn(4) == 0 || n == 0 {
		n += 1 + rnd.Intn(3) // unattached hosts: allAttached must go false
	}
	g := New(n, m, r)
	h := 0
	for s := 0; s < m; s++ {
		for k := 0; k < hk[s%q]; k++ {
			if err := g.AttachHost(h, s); err != nil {
				tb.Fatalf("AttachHost(%d,%d): %v", h, s, err)
			}
			h++
		}
	}
	if rnd.Intn(5) > 0 { // ring: σ-closed as a whole, usually connects
		for s := 0; s < m; s++ {
			a, b := s, (s+1)%m
			if a != b && !g.HasEdge(a, b) {
				if err := g.Connect(a, b); err != nil {
					tb.Fatalf("ring Connect(%d,%d): %v", a, b, err)
				}
			}
		}
	}
	for tries := rnd.Intn(4 * m); tries > 0; tries-- {
		a, b := rnd.Intn(m), rnd.Intn(m)
		if a != b {
			symTestAddOrbit(tb, g, sym, a, b)
		}
	}
	if rnd.Intn(3) == 0 { // drop whole orbits: may disconnect
		for i := 0; i < 1+rnd.Intn(3) && g.NumEdges() > 0; i++ {
			a, b := g.Edge(rnd.Intn(g.NumEdges()))
			symTestRemoveOrbit(tb, g, sym, a, b)
		}
	}
	if err := VerifySymmetric(g, sym); err != nil {
		tb.Fatalf("generator broke its own symmetry: %v", err)
	}
	return g, sym
}

// symTestAddOrbit connects the full σ-orbit of {a,b}, or nothing: a
// capacity failure mid-orbit rolls the applied images back. Because only
// whole orbits are ever committed, an already-present image means the
// whole orbit is present and the attempt is skipped. Returns the applied
// edges (nil when nothing changed).
func symTestAddOrbit(tb testing.TB, g *Graph, sym, a, b int) [][2]int {
	tb.Helper()
	m := g.Switches()
	q := m / sym
	if g.HasEdge(a, b) {
		return nil
	}
	var added [][2]int
	for j := 0; j < sym; j++ {
		x, y := (a+j*q)%m, (b+j*q)%m
		if g.HasEdge(x, y) { // antipodal half-orbit revisits its edges
			continue
		}
		if g.Degree(x) >= g.Radix() || g.Degree(y) >= g.Radix() {
			for i := len(added) - 1; i >= 0; i-- {
				if err := g.Disconnect(added[i][0], added[i][1]); err != nil {
					tb.Fatalf("rollback Disconnect(%v): %v", added[i], err)
				}
			}
			return nil
		}
		if err := g.Connect(x, y); err != nil {
			tb.Fatalf("Connect(%d,%d): %v", x, y, err)
		}
		added = append(added, [2]int{x, y})
	}
	return added
}

// symTestRemoveOrbit disconnects the full σ-orbit of the edge {a,b} and
// returns the removed edges.
func symTestRemoveOrbit(tb testing.TB, g *Graph, sym, a, b int) [][2]int {
	tb.Helper()
	m := g.Switches()
	q := m / sym
	var removed [][2]int
	for j := 0; j < sym; j++ {
		x, y := (a+j*q)%m, (b+j*q)%m
		if !g.HasEdge(x, y) {
			continue
		}
		if err := g.Disconnect(x, y); err != nil {
			tb.Fatalf("Disconnect(%d,%d): %v", x, y, err)
		}
		removed = append(removed, [2]int{x, y})
	}
	return removed
}

func TestVerifySymmetric(t *testing.T) {
	rnd := rng.New(20260808)
	g, sym := symTestGraph(t, rnd)
	if err := VerifySymmetric(g, sym); err != nil {
		t.Fatalf("symmetric graph rejected: %v", err)
	}
	if err := VerifySymmetric(g, 1); err != nil {
		t.Fatalf("sym=1 must be trivially satisfied: %v", err)
	}
	if err := VerifySymmetric(g, 0); err != nil {
		t.Fatalf("sym=0 must be trivially satisfied: %v", err)
	}

	// Switch count not a multiple of the order.
	bad := New(2, 5, 4)
	if err := VerifySymmetric(bad, 2); err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Fatalf("m=5 sym=2: want multiple-of error, got %v", err)
	}
	if err := VerifySymmetric(New(2, 3, 4), 6); err == nil {
		t.Fatal("sym larger than m: want error, got nil")
	}

	// Host counts varying inside an orbit.
	hg := New(1, 4, 4)
	if err := hg.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(hg, 2); err == nil || !strings.Contains(err.Error(), "host") {
		t.Fatalf("orbit-varying hosts: want host-count error, got %v", err)
	}

	// An edge whose image is absent.
	eg := New(1, 6, 4)
	if err := eg.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(eg, 3); err == nil || !strings.Contains(err.Error(), "image") {
		t.Fatalf("non-closed edge: want image error, got %v", err)
	}
	// Completing the orbit repairs it.
	if err := eg.Connect(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := eg.Connect(4, 5); err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(eg, 3); err != nil {
		t.Fatalf("closed orbit still rejected: %v", err)
	}
}

// TestAntipodal pins the half-turn fixed-pair predicate the symmetric seed
// generator and move operators share to keep every edge orbit full-size.
func TestAntipodal(t *testing.T) {
	cases := []struct {
		m, sym, a, b int
		want         bool
	}{
		{12, 2, 0, 6, true},
		{12, 2, 1, 7, true},
		{12, 2, 0, 5, false},
		{12, 3, 0, 6, false}, // odd order: no half-turn
		{12, 4, 0, 6, true},
		{12, 4, 2, 8, true},
		{12, 4, 0, 3, false},
		{12, 6, 5, 11, true},
		{8, 2, 7, 3, true}, // order of endpoints irrelevant
	}
	for _, tc := range cases {
		if got := Antipodal(tc.m, tc.sym, tc.a, tc.b); got != tc.want {
			t.Fatalf("Antipodal(m=%d,sym=%d,%d,%d) = %v, want %v", tc.m, tc.sym, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestOrbitIncrementalDifferential drives an orbit-mode incremental
// evaluator and a generic one through the same sequence of orbit-closed
// edits — commits, peeked-then-reverted candidates, whole-orbit removals
// — asserting bit-identical energies at every step, and EvaluateSlow's at
// attach and at the end.
func TestOrbitIncrementalDifferential(t *testing.T) {
	rnd := rng.New(777)
	for trial := 0; trial < 30; trial++ {
		g, sym := symTestGraph(t, rnd)
		mirror := g.Clone()
		ie := NewOrbitIncrementalEvaluator(1+rnd.Intn(4), sym)
		gen := NewIncrementalEvaluator(1 + rnd.Intn(4))
		want := g.EvaluateSlow()
		if e, ok := ie.Energy(g); ok != want.Connected || (ok && e != want.TotalPath) {
			t.Fatalf("trial %d %v sym=%d: attach Energy (%d,%v) inconsistent with %+v", trial, g, sym, e, ok, want)
		}
		check := func(step string) {
			eo, oko := ie.Energy(g)
			eg, okg := gen.Energy(mirror)
			if eo != eg || oko != okg {
				t.Fatalf("trial %d sym=%d %s: orbit (%d,%v) != generic (%d,%v)", trial, sym, step, eo, oko, eg, okg)
			}
		}
		check("attach")
		m := g.Switches()
		for step := 0; step < 25; step++ {
			a, b := rnd.Intn(m), rnd.Intn(m)
			if a == b {
				continue
			}
			var applied [][2]int
			removedOrbit := g.HasEdge(a, b)
			if removedOrbit {
				applied = symTestRemoveOrbit(t, g, sym, a, b)
			} else {
				applied = symTestAddOrbit(t, g, sym, a, b)
			}
			for _, e := range applied { // replay the exact same edit
				var err error
				if removedOrbit {
					err = mirror.Disconnect(e[0], e[1])
				} else {
					err = mirror.Connect(e[0], e[1])
				}
				if err != nil {
					t.Fatalf("trial %d: mirror replay %v: %v", trial, e, err)
				}
			}
			if rnd.Intn(2) == 0 && len(applied) > 0 {
				// Candidate path: peek both, then revert the edit — the
				// caches must absorb the rollback without committing.
				eo, co, oko := ie.PeekEnergy(g)
				eg, cg, okg := gen.PeekEnergy(mirror)
				if oko != okg || (oko && (eo != eg || co != cg)) {
					t.Fatalf("trial %d sym=%d step %d: peek orbit (%d,%v,%v) != generic (%d,%v,%v)",
						trial, sym, step, eo, co, oko, eg, cg, okg)
				}
				for i := len(applied) - 1; i >= 0; i-- {
					e := applied[i]
					var err1, err2 error
					if removedOrbit {
						err1, err2 = g.Connect(e[0], e[1]), mirror.Connect(e[0], e[1])
					} else {
						err1, err2 = g.Disconnect(e[0], e[1]), mirror.Disconnect(e[0], e[1])
					}
					if err1 != nil || err2 != nil {
						t.Fatalf("trial %d: revert %v: %v / %v", trial, e, err1, err2)
					}
				}
			}
			check("step")
		}
		// Final states agree with from-scratch evaluation.
		want = g.EvaluateSlow()
		e, ok := ie.Energy(g)
		if ok != want.Connected || (ok && e != want.TotalPath) {
			t.Fatalf("trial %d sym=%d: final orbit Energy (%d,%v) inconsistent with %+v", trial, sym, e, ok, want)
		}
	}
}

// breakSymmetry adds one edge whose σ-image stays absent, returning false
// when no such edge fits the graph (the caller resamples).
func breakSymmetry(g *Graph, sym int) bool {
	m := g.Switches()
	q := m / sym
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			x, y := (a+q)%m, (b+q)%m
			if g.HasEdge(a, b) || g.HasEdge(x, y) || (x == a && y == b) || (x == b && y == a) {
				continue
			}
			if g.Degree(a) >= g.Radix() || g.Degree(b) >= g.Radix() {
				continue
			}
			if err := g.Connect(a, b); err == nil {
				return true
			}
		}
	}
	return false
}

// TestOrbitIncrementalPanicsOnSymmetryBreak: an attached orbit-mode cache
// that sees a symmetry-breaking edit must panic at the next sync or peek
// — both the edge and the host variant — and attaching to a graph that is
// already asymmetric panics at once: a quotient cache of an asymmetric
// graph would silently mis-evaluate.
func TestOrbitIncrementalPanicsOnSymmetryBreak(t *testing.T) {
	expectPanic := func(name, needle string, mutate func(g *Graph, sym int) bool, probe func(ie *IncrementalEvaluator, g *Graph)) {
		t.Helper()
		rnd := rng.New(99)
		for {
			g, sym := symTestGraph(t, rnd)
			if g.Order() == 0 || g.SwitchOf(0) == -1 {
				continue // host variant needs an attached host to move
			}
			ie := NewOrbitIncrementalEvaluator(2, sym)
			ie.Energy(g) // attach while still symmetric
			if !mutate(g, sym) {
				continue
			}
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s: want panic after symmetry-breaking edit", name)
					}
					if !strings.Contains(r.(string), needle) {
						t.Fatalf("%s: panic %q lacks %q", name, r, needle)
					}
				}()
				probe(ie, g)
			}()
			return
		}
	}

	edgeBreak := func(g *Graph, sym int) bool { return breakSymmetry(g, sym) }
	hostBreak := func(g *Graph, sym int) bool {
		// Move host 0 one switch over: its orbit loses a host that no
		// image position regains.
		from := g.SwitchOf(0)
		to := (from + 1) % g.Switches()
		return g.MoveHost(0, to) == nil
	}
	syncProbe := func(ie *IncrementalEvaluator, g *Graph) { ie.Energy(g) }
	peekProbe := func(ie *IncrementalEvaluator, g *Graph) { ie.PeekEnergy(g) }

	expectPanic("edge/sync", "broke the order", edgeBreak, syncProbe)
	expectPanic("edge/peek", "broke the order", edgeBreak, peekProbe)
	expectPanic("host/sync", "broke the order", hostBreak, syncProbe)
	expectPanic("host/peek", "broke the order", hostBreak, peekProbe)

	rnd := rng.New(5)
	g, sym := symTestGraph(t, rnd)
	for !breakSymmetry(g, sym) {
		g, sym = symTestGraph(t, rnd)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("orbit-mode attach to asymmetric graph: want panic")
		}
		if !strings.Contains(r.(string), "asymmetric") {
			t.Fatalf("attach panic message %q lacks 'asymmetric'", r)
		}
	}()
	NewOrbitIncrementalEvaluator(1, sym).Energy(g)
}

// FuzzOrbitEval drives random symmetric graphs through the orbit-mode
// incremental evaluator: one orbit edit peeked then committed, and one
// peeked, extended by a second edit and peeked again before its commit.
// Every energy is checked against EvaluateSlow and, after every call,
// every cached row against the reference BFS. Odd seeds repair at every
// peek, even ones let the cost model choose.
func FuzzOrbitEval(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(20260808))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rnd := rng.New(seed)
		g, sym := symTestGraph(t, rnd)
		ie := NewOrbitIncrementalEvaluator(1+int(seed%3), sym)
		if seed%2 == 1 {
			ie.repairCost = 0
		}
		o := newCacheOracle(t, ie, g)
		m := g.Switches()
		edit := func() {
			a, b := rnd.Intn(m), rnd.Intn(m)
			if a == b {
				return
			}
			if g.HasEdge(a, b) {
				symTestRemoveOrbit(t, g, sym, a, b)
			} else {
				symTestAddOrbit(t, g, sym, a, b)
			}
		}
		edit()
		o.peek("peek")
		o.commit("commit")
		edit()
		o.peek("second peek")
		edit()
		o.peek("extended peek")
		o.commit("final")
	})
}
