package hsgraph

import (
	"testing"

	"repro/internal/rng"
)

// repairGraph builds a random sym-symmetric graph (sym 1: generic) for the
// repair oracle: 12-51 switch orbits with 0-6 hosts each, an orbit-closed
// ring with a few links missing, and random chords, so that peeks see
// small and large dirty sets, host-free rows and, now and then, a
// disconnected start.
func repairGraph(t *testing.T, rnd *rng.Rand, sym int) *Graph {
	t.Helper()
	q := 12 + rnd.Intn(40)
	m := q * sym
	k := make([]int, q)
	n := 0
	for i := range k {
		if rnd.Intn(4) > 0 {
			k[i] = rnd.Intn(7)
		}
		n += k[i] * sym
	}
	if n < 2 {
		k[0] = 2
		n = 2 * sym
	}
	g := New(n, m, 24)
	h := 0
	for s := 0; s < m; s++ {
		for i := 0; i < k[s%q]; i++ {
			if err := g.AttachHost(h, s); err != nil {
				t.Fatal(err)
			}
			h++
		}
	}
	for s := 0; s < q; s++ {
		if rnd.Intn(12) > 0 {
			symTestAddOrbit(t, g, sym, s, (s+1)%m)
		}
	}
	for i := q/2 + rnd.Intn(2*q); i > 0; i-- {
		if a, b := rnd.Intn(m), rnd.Intn(m); a != b {
			symTestAddOrbit(t, g, sym, a, b)
		}
	}
	return g
}

// orbitEdit applies whole-orbit mutations to a graph and can revert them
// all, newest first.
type orbitEdit struct {
	t    *testing.T
	g    *Graph
	sym  int
	undo []func()
}

func (e *orbitEdit) images(a, b int) [][2]int {
	m := e.g.Switches()
	q := m / e.sym
	var out [][2]int
	for j := 0; j < e.sym; j++ {
		out = append(out, [2]int{(a + j*q) % m, (b + j*q) % m})
	}
	return out
}

// remove disconnects the orbit of edge {a,b}.
func (e *orbitEdit) remove(a, b int) bool {
	done := false
	for _, p := range e.images(a, b) {
		if !e.g.HasEdge(p[0], p[1]) {
			continue // an antipodal orbit lists its edges twice
		}
		if err := e.g.Disconnect(p[0], p[1]); err != nil {
			e.t.Fatal(err)
		}
		e.undo = append(e.undo, func() {
			if err := e.g.Connect(p[0], p[1]); err != nil {
				e.t.Fatal(err)
			}
		})
		done = true
	}
	return done
}

// add connects the orbit of {a,b}, or nothing when an image is present or
// a port is missing.
func (e *orbitEdit) add(a, b int) bool {
	if a == b || e.g.HasEdge(a, b) {
		return false
	}
	mark := len(e.undo)
	for _, p := range e.images(a, b) {
		if e.g.HasEdge(p[0], p[1]) {
			continue
		}
		if e.g.Degree(p[0]) >= e.g.Radix() || e.g.Degree(p[1]) >= e.g.Radix() {
			e.revertTo(mark)
			return false
		}
		if err := e.g.Connect(p[0], p[1]); err != nil {
			e.t.Fatal(err)
		}
		e.undo = append(e.undo, func() {
			if err := e.g.Disconnect(p[0], p[1]); err != nil {
				e.t.Fatal(err)
			}
		})
	}
	return true
}

// moveHosts moves k hosts from switch from to switch to, on every orbit
// image.
func (e *orbitEdit) moveHosts(from, to, k int) bool {
	m := e.g.Switches()
	q := m / e.sym
	if from%q == to%q || k == 0 || e.g.HostCount(from) < k || e.g.Degree(to)+k > e.g.Radix() {
		return false
	}
	for j := 0; j < e.sym; j++ {
		fj, tj := (from+j*q)%m, (to+j*q)%m
		for i := 0; i < k; i++ {
			h := e.g.AnyHostOn(fj)
			if err := e.g.MoveHost(h, tj); err != nil {
				e.t.Fatal(err)
			}
			e.undo = append(e.undo, func() {
				if err := e.g.MoveHost(h, fj); err != nil {
					e.t.Fatal(err)
				}
			})
		}
	}
	return true
}

// isolate removes every edge orbit at switch s: its hosts, if any, are cut
// off from the rest.
func (e *orbitEdit) isolate(s int) bool {
	done := false
	for e.g.SwitchDegree(s) > 0 {
		done = e.remove(s, int(e.g.Neighbors(s)[0])) || done
	}
	return done
}

func (e *orbitEdit) revertTo(mark int) {
	for i := len(e.undo) - 1; i >= mark; i-- {
		e.undo[i]()
	}
	e.undo = e.undo[:mark]
}

func (e *orbitEdit) revert() { e.revertTo(0) }

// randomEdge returns a random edge of g.
func randomEdge(g *Graph, rnd *rng.Rand) (int, int) {
	return g.Edge(rnd.Intn(g.NumEdges()))
}

// repairCoverage counts the cases TestIncrementalRepairOracle must reach.
type repairCoverage struct {
	repairedPeeks, totalsPeeks, tooDirtyPeeks, rollbacks, commits int
	disconnected, reconnected                                     int
	hostMoves, orbitEdits, sameEdge, twoNeighbor, rebuilds        int
}

// TestIncrementalRepairOracle checks the in-place row repair against the
// reference BFS. Over generic and 2-, 3- and 4-symmetric graphs, at 1, 2
// and 4 workers, with every peek repaired and with the cost model's
// choice, it runs scripts of whole-orbit edits, host moves, a move that
// removes and re-adds the same edge, the 2-neighbour shape (peek A, apply
// B on top, peek A+B, revert both), a move that disconnects the hosts and
// a later one that reconnects them, and batches large enough to force a
// full rebuild. After every peek, explicit rollback and commit it compares
// every cached row entry with Graph.SwitchBFS from that source (checkCache)
// and every energy with EvaluateSlow. Between each peek and the call that
// follows it, the cache's own Evaluator evaluates a larger graph, whose
// answers must match EvaluateSlow too: the pool scratch both share must
// carry nothing from one to the other. Coverage floors fail the test
// unless each case occurred.
func TestIncrementalRepairOracle(t *testing.T) {
	shortcutCase(t)
	other, err := RandomConnected(600, 220, 12, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(20261019)
	trials := 24
	if testing.Short() {
		trials = 12
	}
	var cov repairCoverage
	for trial := 0; trial < trials; trial++ {
		sym := []int{1, 2, 3, 4}[trial%4]
		base := repairGraph(t, rnd, sym)
		seed := rnd.Uint64()
		for _, workers := range []int{1, 2, 4} {
			for _, forced := range []bool{true, false} {
				g := base.Clone()
				ie := newCache(t, workers, sym)
				if forced {
					ie.repairCost = 0
				}
				ctx := "trial " + itoa(trial) + " sym " + itoa(sym) + " workers " + itoa(workers)
				runRepairScript(t, newCacheOracle(t, ie, g), other, sym, rng.New(seed), ctx, &cov)
			}
		}
	}
	floors := []struct {
		name string
		got  int
	}{
		{"peeks that repaired the rows", cov.repairedPeeks},
		{"peeks with the totals kernel", cov.totalsPeeks},
		{"peeks past the 3/4 threshold", cov.tooDirtyPeeks},
		{"explicit rollbacks", cov.rollbacks},
		{"commits", cov.commits},
		{"disconnecting commits", cov.disconnected},
		{"reconnecting commits", cov.reconnected},
		{"host moves", cov.hostMoves},
		{"whole-orbit edits", cov.orbitEdits},
		{"moves that add and remove the same edge", cov.sameEdge},
		{"2-neighbour candidates", cov.twoNeighbor},
		{"full rebuilds", cov.rebuilds},
	}
	t.Logf("coverage %+v", cov)
	for _, f := range floors {
		if f.got == 0 {
			t.Errorf("coverage gap: no %s (%+v)", f.name, cov)
		}
	}
}

// shortcutCase is the hand-built move where the removals must run on the
// graph without the net-added edges. From switch 0, switch 2 sits at
// distance 2 behind switch 1, and switch 4 at 3 behind both 2 and 3.
// Removing {1,2} raises 2; adding {0,2} in the same move brings it back
// to 1, and 4 with it to 2. Were the added edge a boundary of the
// re-settle, 2 would land on 1 there, 4 (still supported by 3) would keep
// 3, and the added edge, no longer slack, would lower nothing. A separate
// ring of 20 switches keeps the dirty rows under the rebuild threshold.
// The move runs a second time with {2,25} added too (25 is an isolated
// host-free switch), so that switch 2 ends several net-added edges.
func shortcutCase(t *testing.T) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		for _, forced := range []bool{true, false} {
			for _, twoAdded := range []bool{false, true} {
				g := New(25, 26, 8)
				for h := 0; h < 25; h++ {
					if err := g.AttachHost(h, h); err != nil {
						t.Fatal(err)
					}
				}
				edges := [][2]int{{0, 1}, {1, 2}, {2, 4}, {1, 3}, {3, 4}}
				for s := 5; s < 25; s++ {
					edges = append(edges, [2]int{s, 5 + (s-4)%20})
				}
				for _, e := range edges {
					if err := g.Connect(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				}
				ie := newCache(t, workers, 1)
				if forced {
					ie.repairCost = 0
				}
				o := newCacheOracle(t, ie, g)
				if err := g.Disconnect(1, 2); err != nil {
					t.Fatal(err)
				}
				if err := g.Connect(0, 2); err != nil {
					t.Fatal(err)
				}
				if twoAdded {
					if err := g.Connect(2, 25); err != nil {
						t.Fatal(err)
					}
				}
				o.peek("shortcut peek")
				if forced && !o.ie.applied {
					t.Fatal("shortcut peek did not repair the rows")
				}
				o.commit("shortcut commit")
			}
		}
	}
}

// runRepairScript drives one evaluator through a random script on o.g,
// checking the cache after every call, and evaluates other on the cache's
// Evaluator after every peek.
func runRepairScript(t *testing.T, o *cacheOracle, other *Graph, sym int, rnd *rng.Rand, ctx string, cov *repairCoverage) {
	t.Helper()
	g, ie := o.g, o.ie
	m := g.Switches()
	otherWant := other.EvaluateSlow()
	connected := g.EvaluateSlow().Connected
	var cut [][2]int // edges of a committed isolation, re-added by a later move
	commit := func(step string) {
		before := ie.Stats()
		o.commit(step)
		after := ie.Stats()
		cov.commits++
		rebuilds := after.FullRebuilds - before.FullRebuilds
		cov.rebuilds += int(rebuilds)
		if swept := after.SweptSources - before.SweptSources; swept != rebuilds*int64(ie.q) {
			t.Errorf("%s: commit swept %d rows in %d rebuilds of %d", step, swept, rebuilds, ie.q)
		}
		now := g.EvaluateSlow().Connected
		if connected && !now {
			cov.disconnected++
		}
		if !connected && now {
			cov.reconnected++
		}
		connected = now
	}
	peek := func(step string) {
		before := ie.Stats().SweptSources
		o.peek(step)
		if ie.Stats().SweptSources != before {
			t.Errorf("%s: a peek swept rows into the cache", step)
		}
		switch {
		case ie.applied:
			cov.repairedPeeks++
		case ie.tooDirty():
			cov.tooDirtyPeeks++
		default:
			cov.totalsPeeks++
		}
		if got := ie.ev.Evaluate(other); got != otherWant {
			t.Fatalf("%s: shared Evaluate %+v, reference %+v", step, got, otherWant)
		}
		if e, c := ie.ev.Energy(other); e != otherWant.TotalPath || c != otherWant.Connected {
			t.Fatalf("%s: shared Energy (%d, %v), reference (%d, %v)", step, e, c, otherWant.TotalPath, otherWant.Connected)
		}
	}
	// move applies one random kind of candidate move to e.
	move := func(e *orbitEdit) bool {
		if g.NumEdges() < 2 {
			return e.add(rnd.Intn(m), rnd.Intn(m))
		}
		switch rnd.Intn(7) {
		case 0:
			a, b := randomEdge(g, rnd)
			return e.remove(a, b)
		case 1:
			return e.add(rnd.Intn(m), rnd.Intn(m))
		case 2: // a swing-shaped rewire: {a,b} out, {a,c} in
			a, b := randomEdge(g, rnd)
			mark := len(e.undo)
			if e.remove(a, b) && e.add(a, rnd.Intn(m)) {
				return true
			}
			e.revertTo(mark)
			return false
		case 3:
			from, to := rnd.Intn(m), rnd.Intn(m)
			if e.moveHosts(from, to, 1+rnd.Intn(2)) {
				cov.hostMoves++
				return true
			}
			return false
		case 4: // remove and re-add the same edge, and add another
			a, b := randomEdge(g, rnd)
			mark := len(e.undo)
			if e.remove(a, b) && e.add(a, b) && e.add(rnd.Intn(m), rnd.Intn(m)) {
				cov.sameEdge++
				return true
			}
			e.revertTo(mark)
			return false
		case 5:
			a, b := randomEdge(g, rnd)
			mark := len(e.undo)
			if e.remove(a, b) && e.add(rnd.Intn(m), rnd.Intn(m)) {
				return true
			}
			e.revertTo(mark)
			return false
		default: // a burst of edits, often past the 3/4 threshold
			done := false
			for i := 0; i < 4+rnd.Intn(12); i++ {
				if rnd.Intn(2) == 0 && g.NumEdges() > m/2 {
					a, b := randomEdge(g, rnd)
					done = e.remove(a, b) || done
				} else {
					done = e.add(rnd.Intn(m), rnd.Intn(m)) || done
				}
			}
			return done
		}
	}
	for step := 0; step < 20; step++ {
		sctx := ctx + " step " + itoa(step)
		e := &orbitEdit{t: t, g: g, sym: sym}
		switch {
		case cut != nil && rnd.Intn(3) == 0: // re-add what the cut removed
			for _, p := range cut {
				e.add(p[0], p[1]) // skipped where later moves took the ports
			}
			cut = nil
			peek(sctx + " reconnect")
			commit(sctx + " reconnect")
			continue
		case cut == nil && rnd.Intn(6) == 0: // cut a host-bearing switch off
			s := rnd.Intn(m)
			if g.HostCount(s) == 0 {
				continue
			}
			for _, u := range g.Neighbors(s) {
				cut = append(cut, [2]int{s, int(u)})
			}
			if !e.isolate(s) {
				cut = nil
				continue
			}
			peek(sctx + " cut")
			commit(sctx + " cut")
			continue
		}
		if !move(e) {
			continue
		}
		if sym > 1 {
			cov.orbitEdits++
		}
		peek(sctx + " peek")
		switch rnd.Intn(4) {
		case 0, 1: // accepted
			commit(sctx + " accept")
		case 2: // rejected: revert, roll the rows back, and check them
			e.revert()
			ie.restore()
			o.rows(sctx + " rollback")
			cov.rollbacks++
			peek(sctx + " after rollback")
		default: // 2-neighbour: B on top of the peeked A
			e2 := &orbitEdit{t: t, g: g, sym: sym}
			if !move(e2) {
				e.revert()
				peek(sctx + " reverted")
				continue
			}
			cov.twoNeighbor++
			peek(sctx + " A+B")
			if rnd.Intn(2) == 0 {
				commit(sctx + " accept A+B")
				continue
			}
			e2.revert()
			e.revert()
			commit(sctx + " revert A+B")
		}
	}
}
