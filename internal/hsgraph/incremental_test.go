package hsgraph

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

// moveOp is one replayable graph mutation for the differential harness.
type moveOp struct {
	kind    int // 0 = disconnect, 1 = connect, 2 = move host
	a, b, h int
}

func (op moveOp) apply(t *testing.T, g *Graph) {
	t.Helper()
	var err error
	switch op.kind {
	case 0:
		err = g.Disconnect(op.a, op.b)
	case 1:
		err = g.Connect(op.a, op.b)
	case 2:
		err = g.MoveHost(op.h, op.a)
	}
	if err != nil {
		t.Fatalf("replay %+v: %v", op, err)
	}
}

// randomMoveScript generates a sequence of valid-in-order mutations by
// applying candidates to the scratch clone as it goes; the result replays
// without errors on any clone of the same starting graph. Roughly half the
// steps are immediately-reverted pairs, so the op log's net-cancellation
// path is exercised as heavily as plain moves.
func randomMoveScript(t *testing.T, g *Graph, rnd *rng.Rand, steps int) []moveOp {
	t.Helper()
	scratch := g.Clone()
	var script []moveOp
	emit := func(op moveOp) {
		op.apply(t, scratch)
		script = append(script, op)
	}
	m := scratch.Switches()
	r := scratch.Radix()
	for len(script) < steps {
		revert := rnd.Intn(2) == 0
		switch rnd.Intn(3) {
		case 0: // rewire: drop a random edge, maybe add another
			if scratch.NumEdges() == 0 {
				continue
			}
			a, b := scratch.Edge(rnd.Intn(scratch.NumEdges()))
			emit(moveOp{kind: 0, a: a, b: b})
			if revert {
				emit(moveOp{kind: 1, a: a, b: b})
			}
		case 1:
			a, b := rnd.Intn(m), rnd.Intn(m)
			if a == b || scratch.HasEdge(a, b) || scratch.Degree(a) >= r || scratch.Degree(b) >= r {
				continue
			}
			emit(moveOp{kind: 1, a: a, b: b})
			if revert {
				emit(moveOp{kind: 0, a: a, b: b})
			}
		default:
			if scratch.Order() == 0 {
				continue
			}
			h := rnd.Intn(scratch.Order())
			from := scratch.SwitchOf(h)
			if from < 0 {
				continue
			}
			to := rnd.Intn(m)
			if to == from || scratch.Degree(to) >= r {
				continue
			}
			emit(moveOp{kind: 2, h: h, a: to})
			if revert {
				emit(moveOp{kind: 2, h: h, a: from})
			}
		}
	}
	return script
}

// newCache returns a cache of symmetry order sym over a fresh Evaluator
// with the given workers, whose pool is closed when the test ends.
func newCache(t testing.TB, workers, sym int) *IncrementalEvaluator {
	ev := NewEvaluator(workers)
	t.Cleanup(ev.Close)
	return NewIncrementalEvaluator(ev, sym)
}

// checkIncrementalStep commits g's current state into the incremental
// evaluator and compares its Energy and Evaluate with the reference BFS,
// EvaluateSlow.
func checkIncrementalStep(t *testing.T, ie *IncrementalEvaluator, g *Graph, ctx string) {
	t.Helper()
	want := g.EvaluateSlow()
	wantE := want.TotalPath
	if !want.Connected {
		wantE = 0
	}
	gotE, gotC := ie.Energy(g)
	if gotE != wantE || gotC != want.Connected {
		t.Fatalf("%s: incremental Energy (%d, %v) != reference (%d, %v)", ctx, gotE, gotC, wantE, want.Connected)
	}
	if got := ie.Evaluate(g); got != want {
		t.Fatalf("%s: incremental Evaluate %+v != reference %+v", ctx, got, want)
	}
}

// checkCache compares every cached row of ie, entry by entry, with the
// reference BFS on want, the graph whose distances the rows must hold (the
// pending graph after a peek that repaired, the committed one otherwise),
// and each row's aggregates with the sums over that row; the aggregates
// weight their targets by the committed host counts.
func checkCache(t *testing.T, ie *IncrementalEvaluator, want *Graph, ctx string) {
	t.Helper()
	m := want.Switches()
	dist := make([]int32, m)
	queue := make([]int32, 0, m)
	for s := 0; s < ie.q; s++ {
		want.SwitchBFS(s, dist, queue)
		row := ie.row(s)
		var sum, w, rch int64
		for v, d := range dist {
			if int32(row[v]) != d {
				t.Fatalf("%s: row %d, switch %d: cached distance %d, reference %d", ctx, s, v, row[v], d)
			}
			if v == s || d < 0 {
				continue
			}
			k := int64(ie.hosts[v])
			sum += k * int64(d+2)
			w += k
			if k > 0 {
				rch++
			}
		}
		if ie.rowSum[s] != sum || ie.rowW[s] != w || ie.rowRch[s] != rch {
			t.Fatalf("%s: row %d aggregates (%d, %d, %d), reference (%d, %d, %d)",
				ctx, s, ie.rowSum[s], ie.rowW[s], ie.rowRch[s], sum, w, rch)
		}
	}
}

// cacheOracle follows one evaluator through a mutation script, keeping a
// copy of the graph it last committed so that checkCache knows which
// distances the rows must hold after every call.
type cacheOracle struct {
	t         *testing.T
	ie        *IncrementalEvaluator
	g         *Graph
	committed *Graph
}

func newCacheOracle(t *testing.T, ie *IncrementalEvaluator, g *Graph) *cacheOracle {
	o := &cacheOracle{t: t, ie: ie, g: g}
	o.commit("attach")
	return o
}

// commit commits g and checks the energies and every row.
func (o *cacheOracle) commit(ctx string) {
	o.t.Helper()
	checkIncrementalStep(o.t, o.ie, o.g, ctx)
	o.committed = o.g.Clone()
	o.rows(ctx)
}

// peek peeks g and checks the energy and every row.
func (o *cacheOracle) peek(ctx string) {
	o.t.Helper()
	checkPeek(o.t, o.ie, o.g, ctx)
	o.rows(ctx)
}

// rows checks every row against the graph it must hold now.
func (o *cacheOracle) rows(ctx string) {
	o.t.Helper()
	want := o.committed
	if o.ie.applied {
		want = o.g
	}
	checkCache(o.t, o.ie, want, ctx)
}

// checkPeek compares PeekEnergy on g's pending state against the
// reference BFS. A peek the cache refuses (not attached to g) is skipped.
func checkPeek(t *testing.T, ie *IncrementalEvaluator, g *Graph, ctx string) {
	t.Helper()
	gotE, gotC, ok := ie.PeekEnergy(g)
	if !ok {
		return
	}
	want := g.EvaluateSlow()
	if gotC != want.Connected || (gotC && gotE != want.TotalPath) {
		t.Fatalf("%s: PeekEnergy (%d, %v) != reference (%d, %v)", ctx, gotE, gotC, want.TotalPath, want.Connected)
	}
}

// TestIncrementalEvaluatorDifferential is the equivalence proof behind the
// incremental engine: on >= 200 (graph, move-script, worker-count)
// combinations, the repaired cache must agree with the reference BFS
// bit-for-bit on TotalPath, HASPL, Diameter and connectivity after every
// single step — across connected, disconnected, island and
// concentrated-host regimes, and across heavy do/undo churn.
func TestIncrementalEvaluatorDifferential(t *testing.T) {
	rnd := rng.New(20260807)
	workerCounts := []int{1, 2, 3, 8}
	// Full depth in -short mode too: the floor checked at the end needs
	// >= 200 combinations, and the run takes ~3 s even under -race.
	sequences := 50
	steps := 24
	trials := 0
	for seq := 0; seq < sequences; seq++ {
		base := randomEvalGraph(t, rnd)
		script := randomMoveScript(t, base, rnd, steps)
		for _, workers := range workerCounts {
			trials++
			g := base.Clone()
			ie := newCache(t, workers, 1)
			checkIncrementalStep(t, ie, g, "initial")
			for i, op := range script {
				op.apply(t, g)
				checkIncrementalStep(t, ie, g, "seq "+itoa(seq)+" step "+itoa(i)+" workers "+itoa(workers))
			}
		}
	}
	if trials < 200 {
		t.Fatalf("differential coverage too small: %d combinations", trials)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestIncrementalRollbackReevaluate is the regression test for the
// stale-cache bug class: a candidate move is peeked, rejected and rolled
// back, and the evaluator must then judge subsequent moves
// against correct cached distances. A buggy implementation that committed
// the peeked rows (or skipped re-flagging on the undo ops) would keep
// distances of the rejected candidate and return a wrong energy for the
// follow-up move.
func TestIncrementalRollbackReevaluate(t *testing.T) {
	rnd := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		g := randomEvalGraph(t, rnd)
		ie := newCache(t, 1+trial%3, 1)
		checkIncrementalStep(t, ie, g, "attach")
		script := randomMoveScript(t, g, rnd, 6)
		for i, op := range script {
			// Candidate: apply, peek, reject, roll back.
			undo := op
			if op.kind == 2 {
				undo.a = g.SwitchOf(op.h) // the host's pre-move switch
			}
			op.apply(t, g)
			checkPeek(t, ie, g, "peek "+itoa(i))
			switch op.kind {
			case 0:
				undo.kind = 1
			case 1:
				undo.kind = 0
			}
			undo.apply(t, g)
			// The cache must now answer for the rolled-back (original)
			// state and for any follow-up mutation.
			checkIncrementalStep(t, ie, g, "rollback "+itoa(i))
			// Re-apply for real so later candidates see fresh states, and
			// check again: the undo ops' re-flagging must not linger.
			op.apply(t, g)
			checkIncrementalStep(t, ie, g, "reapply "+itoa(i))
		}
	}
}

// TestIncrementalOpLogOverflow drives more mutations than the op log
// holds between evaluations; the evaluator must notice and fall back to a
// full rebuild instead of trusting a truncated log.
func TestIncrementalOpLogOverflow(t *testing.T) {
	g, err := RandomConnected(64, 16, 10, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ie := newCache(t, 2, 1)
	checkIncrementalStep(t, ie, g, "attach")
	a, b := g.Edge(0)
	for i := 0; i < maxOpLog; i++ { // 2 ops per round: guaranteed overflow
		if err := g.Disconnect(a, b); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if !g.opOverflow {
		t.Fatal("op log did not overflow")
	}
	checkIncrementalStep(t, ie, g, "post-overflow")
	// And the evaluator must have re-armed a fresh log.
	if g.opOverflow || !g.opLogOn {
		t.Fatal("evaluator did not re-arm the op log after overflow")
	}
}

// TestIncrementalEvaluatorSteadyStateAllocs verifies that the
// annealing-shaped cycles are allocation-free once the cache is warm, like
// the sharded evaluator's steady state, at every worker count: on a graph
// whose passes are shared by the pool (a 2-swap there flags a few hundred
// rows, more than one repair chunk and one sweep batch). Each cycle runs
// a 2-swap and its reverse, each first rejected (peek, revert, next call)
// and then accepted (peek, commit), so every commit changes rows. In the
// totals-peek cycle every peek evaluates the flagged rows with the totals
// kernel and the commit repairs them; in the repair cycle every peek
// repairs them under the undo log and the commit only drops it.
func TestIncrementalEvaluatorSteadyStateAllocs(t *testing.T) {
	g, err := RandomConnected(4096, 1100, 12, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	runs := 20
	if testing.Short() {
		runs = 5
	}
	for _, workers := range []int{1, 2, 4} {
		ie := newCache(t, workers, 1)
		ie.Energy(g)
		ie.repairCost = 0
		from, to := repairedSwap(t, g, ie)
		for _, repair := range []bool{false, true} {
			ctx := "workers " + itoa(workers) + " totals-peek cycle"
			ie.repairCost = 1 << 30
			if repair {
				ctx = "workers " + itoa(workers) + " repair cycle"
				ie.repairCost = 0
			}
			cycle := func() {
				for _, x := range [][2][2][2]int{{from, to}, {to, from}} {
					swapEdges(t, g, x[0], x[1])
					ie.PeekEnergy(g)
					swapEdges(t, g, x[1], x[0])
					swapEdges(t, g, x[0], x[1])
					if _, connected, _ := ie.PeekEnergy(g); !connected || ie.applied != repair {
						t.Fatalf("%s: swap peek disconnected or on the other path", ctx)
					}
					if len(ie.dirty) <= laneWidth {
						t.Fatalf("%s: %d dirty rows, want more than a sweep batch", ctx, len(ie.dirty))
					}
					ie.Energy(g)
				}
			}
			cycle() // warm every scratch path
			before := ie.Stats()
			// Finish the collection the set-up's allocations started: a
			// GC cycle running inside the measured window makes the
			// runtime allocate sudogs for the pool's channel waits.
			runtime.GC()
			if avg := testing.AllocsPerRun(runs, cycle); avg > 0 {
				t.Errorf("%s: allocates %.1f times per cycle", ctx, avg)
			}
			s := ie.Stats()
			reused := s.StoredPeekReuses - before.StoredPeekReuses
			if reused != 0 && !repair || reused < int64(2*runs) && repair ||
				s.RepairedEntries == before.RepairedEntries ||
				s.SweptSources != before.SweptSources || s.FullRebuilds != before.FullRebuilds {
				t.Fatalf("%s took another path: %+v then %+v", ctx, before, s)
			}
		}
	}
}

// swapEdges disconnects the edges rm and connects the edges add.
func swapEdges(t *testing.T, g *Graph, rm, add [2][2]int) {
	t.Helper()
	for _, p := range rm {
		if err := g.Disconnect(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range add {
		if err := g.Connect(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// repairedSwap finds edges {a,b}, {c,d} of g whose 2-swap to {a,c}, {b,d}
// keeps the hosts connected and is repaired in place at the peek, both
// ways; ie (attached to g, its repair forced) and g end as they began.
func repairedSwap(t *testing.T, g *Graph, ie *IncrementalEvaluator) (from, to [2][2]int) {
	t.Helper()
	repaired := func(rm, add [2][2]int) bool {
		swapEdges(t, g, rm, add)
		_, connected, _ := ie.PeekEnergy(g)
		ok := connected && ie.applied
		swapEdges(t, g, add, rm)
		ie.Energy(g)
		return ok
	}
	var edges [][2]int
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(i)
		edges = append(edges, [2]int{a, b})
	}
	for i, e := range edges {
		for _, f := range edges[i+1:] {
			a, b, c, d := e[0], e[1], f[0], f[1]
			if a == c || a == d || b == c || b == d || g.HasEdge(a, c) || g.HasEdge(b, d) {
				continue
			}
			from, to = [2][2]int{{a, b}, {c, d}}, [2][2]int{{a, c}, {b, d}}
			if !repaired(from, to) {
				continue
			}
			swapEdges(t, g, from, to)
			ie.Energy(g)
			back := repaired(to, from)
			swapEdges(t, g, to, from)
			ie.Energy(g)
			if back {
				return from, to
			}
		}
	}
	t.Fatal("no 2-swap is repaired in place both ways")
	return
}

// FuzzIncrementalEval feeds random edge-mutation scripts (including no-op
// and revert pairs, peeks, peeks then commits, and peeks of a candidate
// extended after its first peek) to the incremental evaluator and checks
// every energy against EvaluateSlow and, after every call, every cached
// row against the reference BFS. Odd seeds repair at every peek, even
// ones let the cost model choose.
func FuzzIncrementalEval(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint64(7), []byte{9, 9, 9, 9, 0, 0, 0, 0, 255, 254, 253})
	f.Add(uint64(42), []byte{})
	f.Add(uint64(20260807), []byte{1, 0, 1, 0, 1, 0, 1, 0, 2, 2, 2, 2})
	f.Add(uint64(3), []byte{5, 1, 2, 6, 3, 4, 5, 7, 9, 6, 8, 1, 12, 2, 0, 13, 5, 5})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		rnd := rng.New(seed)
		g := randomEvalGraph(t, rnd)
		ie := newCache(t, 1+int(seed%3), 1)
		if seed%2 == 1 {
			ie.repairCost = 0
		}
		o := newCacheOracle(t, ie, g)
		for i := 0; i+2 < len(script); i += 3 {
			op, x, y := script[i], int(script[i+1]), int(script[i+2])
			ctx := "op " + itoa(i)
			switch op % 7 {
			case 0, 1, 2: // disconnect an edge, connect a pair, move a host
				fuzzEdit(t, g, int(op%3), x, y)
			case 3: // revert pair: disconnect + reconnect (net no-op)
				if g.NumEdges() == 0 {
					continue
				}
				a, b := g.Edge(x % g.NumEdges())
				if err := g.Disconnect(a, b); err != nil {
					t.Fatal(err)
				}
				if err := g.Connect(a, b); err != nil {
					t.Fatal(err)
				}
			case 4: // peek without committing anything
				o.peek(ctx)
				continue
			case 5: // peek, then commit the peeked candidate
				fuzzEdit(t, g, y%3, x, y)
				o.peek(ctx)
				o.commit(ctx + " commit")
				continue
			default: // peek, extend the candidate, peek again
				fuzzEdit(t, g, x%3, x, y)
				o.peek(ctx)
				fuzzEdit(t, g, y%3, y, x)
				o.peek(ctx + " extended")
				continue
			}
			o.commit(ctx)
		}
		o.commit("final")
	})
}

// fuzzEdit applies one fuzzer-chosen mutation when it is legal: kind 0
// disconnects edge x, kind 1 connects switches x and y, kind 2 moves host
// x to switch y.
func fuzzEdit(t *testing.T, g *Graph, kind, x, y int) {
	t.Helper()
	m, r := g.Switches(), g.Radix()
	var err error
	switch kind {
	case 0:
		if g.NumEdges() == 0 {
			return
		}
		a, b := g.Edge(x % g.NumEdges())
		err = g.Disconnect(a, b)
	case 1:
		a, b := x%m, y%m
		if a == b || g.HasEdge(a, b) || g.Degree(a) >= r || g.Degree(b) >= r {
			return
		}
		err = g.Connect(a, b)
	default:
		if g.Order() == 0 {
			return
		}
		h, to := x%g.Order(), y%m
		if g.SwitchOf(h) < 0 || to == g.SwitchOf(h) || g.Degree(to) >= r {
			return
		}
		err = g.MoveHost(h, to)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalStats checks the introspection counters against a
// scripted interaction: attach, commits with and without a peek, a peek
// that repaired the rows (whose commit is free), a peek that used the
// totals kernel (whose commit repairs) and a forced full rebuild all leave
// their fingerprints.
func TestIncrementalStats(t *testing.T) {
	g, err := RandomConnected(32, 16, 10, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	ie := newCache(t, 2, 1)
	q := int64(g.Switches())

	ie.Energy(g) // attach: a rebuild, but not a counted sync
	s := ie.Stats()
	if s.Syncs != 0 || s.SweptSources != q || s.RepairedEntries != 0 {
		t.Fatalf("after attach: %+v", s)
	}

	// A host move committed without a peek: counted, but no row changes
	// distance, so nothing is repaired or swept.
	if err := g.MoveHost(0, pickTarget(t, g)); err != nil {
		t.Fatal(err)
	}
	ie.Energy(g)
	s = ie.Stats()
	if s.Syncs != 1 || s.FullRebuilds != 0 || s.DirtySources != 0 || s.SweptSources != q || s.RepairedEntries != 0 {
		t.Fatalf("after host commit: %+v", s)
	}

	// Peek then commit the identical state: the peek applied the
	// candidate, so the commit finds it in place.
	if err := g.MoveHost(0, pickTarget(t, g)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ie.PeekEnergy(g); !ok {
		t.Fatal("peek refused")
	}
	ie.Energy(g)
	s = ie.Stats()
	if s.Peeks != 1 || s.StoredPeekReuses != 1 || s.SweptSources != q {
		t.Fatalf("host peek not reused: %+v", s)
	}

	// A rewire peeked with the repair forced: the peek repairs the dirty
	// rows, the commit reuses them.
	ie.repairCost = 0
	rewire(t, g, rng.New(3))
	before := ie.Stats()
	if _, _, ok := ie.PeekEnergy(g); !ok || !ie.applied {
		t.Fatalf("peek refused or not repaired (ok=%v)", ok)
	}
	peeked := ie.Stats()
	dirty := int64(len(ie.dirty))
	if dirty == 0 || peeked.SweptSources != before.SweptSources ||
		peeked.RepairedEntries == before.RepairedEntries {
		t.Fatalf("rewire peek: %d dirty rows, stats %+v then %+v", dirty, before, peeked)
	}
	ie.Energy(g)
	s = ie.Stats()
	if s.StoredPeekReuses != 2 || s.DirtySources-peeked.DirtySources != dirty ||
		s.SweptSources != peeked.SweptSources || s.RepairedEntries != peeked.RepairedEntries {
		t.Fatalf("repaired peek's commit was not free: %+v then %+v", peeked, s)
	}

	// The same with the totals kernel at the peek: nothing is applied, and
	// the commit repairs.
	ie.repairCost = 1 << 30
	rewire(t, g, rng.New(5))
	if _, _, ok := ie.PeekEnergy(g); !ok || ie.applied {
		t.Fatalf("peek refused or repaired (ok=%v)", ok)
	}
	peeked = ie.Stats()
	ie.Energy(g)
	s = ie.Stats()
	if s.StoredPeekReuses != 2 || s.Syncs != peeked.Syncs+1 ||
		s.RepairedEntries == peeked.RepairedEntries || s.SweptSources != peeked.SweptSources {
		t.Fatalf("totals peek's commit did not repair: %+v then %+v", peeked, s)
	}

	// Batch enough genuine rewires between commits and the dirty-row
	// fraction must eventually exceed the fallback threshold.
	rnd := rng.New(23)
	for round := 0; round < 50 && ie.Stats().FullRebuilds == 0; round++ {
		for k := 0; k < 12; k++ {
			rewire(t, g, rnd)
		}
		ie.Energy(g)
	}
	s = ie.Stats()
	if s.FullRebuilds == 0 {
		t.Fatalf("mass dirtying never triggered the fallback: %+v", s)
	}
	if s.DirtySources == 0 || s.SweptSources < q*(1+s.FullRebuilds) {
		t.Fatalf("rewires left no sweep trace: %+v", s)
	}
}

// rewire removes a random edge and adds a random non-edge, mutating the
// topology for real (no net no-ops that the op log would compact away).
func rewire(t *testing.T, g *Graph, rnd *rng.Rand) {
	t.Helper()
	if g.NumEdges() > 0 {
		a, b := g.Edge(int(rnd.Uint64() % uint64(g.NumEdges())))
		if err := g.Disconnect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 64; try++ {
		a := int(rnd.Uint64() % uint64(g.Switches()))
		b := int(rnd.Uint64() % uint64(g.Switches()))
		if a == b || g.HasEdge(a, b) {
			continue
		}
		if g.SwitchDegree(a)+g.HostCount(a) >= g.Radix() || g.SwitchDegree(b)+g.HostCount(b) >= g.Radix() {
			continue
		}
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
		return
	}
}

// pickTarget returns a switch host 0 can legally move to.
func pickTarget(t *testing.T, g *Graph) int {
	t.Helper()
	from := g.SwitchOf(0)
	for to := 0; to < g.Switches(); to++ {
		if to != from && g.Degree(to) < g.Radix() {
			return to
		}
	}
	t.Fatal("no legal host move")
	return -1
}

// TestPreferIncrementalSizeRule pins the evaluation path's size rule: the
// exact path up to m = 64, the cache above it while its q×m int16 row
// store fits the budget of 20000² entries, with orbit rows (q = m/sym)
// stretching the budget under symmetry. A graph over the budget takes the exact path; attaching the
// cache to one anyway panics and names the computed size.
func TestPreferIncrementalSizeRule(t *testing.T) {
	for _, tc := range []struct {
		m, sym int
		want   bool
	}{
		{18, 1, false},
		{64, 1, false},
		{65, 1, true},
		{65, 0, true},
		{64, 4, false},
		{68, 4, true},
		{20000, 1, true},  // 4.00e8 entries, the budget exactly
		{20001, 1, false}, // 20001² entries
		{20001, 3, true},  // 6667 orbit rows
		{28284, 2, true},  // 14142·28284 = 399 992 328 entries
		{28286, 2, false}, // 14143·28286 = 400 048 898 entries
	} {
		if got := PreferIncremental(tc.m, tc.sym); got != tc.want {
			t.Errorf("PreferIncremental(%d, %d) = %v, want %v", tc.m, tc.sym, got, tc.want)
		}
	}

	m := 20001
	g := New(2, m, 4)
	for h, s := range []int{0, 1} {
		if err := g.AttachHost(h, s); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < m; s++ {
		if err := g.Connect(s, (s+1)%m); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "400040001 entries") {
			t.Fatalf("attaching an over-budget cache: want a panic naming its size, got %q", msg)
		}
	}()
	newCache(t, 1, 1).Energy(g)
}
