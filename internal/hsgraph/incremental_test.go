package hsgraph

import (
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

// checkIncrementalStep compares the incremental evaluator's Energy and
// Evaluate against the trusted serial engine on g's current state.
func checkIncrementalStep(t *testing.T, ie *IncrementalEvaluator, ev *Evaluator, g *Graph, ctx string) {
	t.Helper()
	wantMet := g.Evaluate()
	wantE, wantC := ev.Energy(g)
	gotE, gotC := ie.Energy(g)
	if gotE != wantE || gotC != wantC {
		t.Fatalf("%s: incremental Energy (%d, %v) != exact (%d, %v)", ctx, gotE, gotC, wantE, wantC)
	}
	if gotMet := ie.Evaluate(g); gotMet != wantMet {
		t.Fatalf("%s: incremental Evaluate %+v != exact %+v", ctx, gotMet, wantMet)
	}
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
// combinations, the dirty-source re-sweep must agree with the full-sweep
// engines bit-for-bit on TotalPath, HASPL, Diameter and connectivity after
// every single step — across connected, disconnected, island and
// concentrated-host regimes, and across heavy do/undo churn.
func TestIncrementalEvaluatorDifferential(t *testing.T) {
	rnd := rng.New(20260807)
	workerCounts := []int{1, 2, 3, 8}
	// Full depth in -short mode too: the floor checked at the end needs
	// >= 200 combinations, and the run takes ~3 s even under -race.
	sequences := 50
	steps := 24
	ev := NewEvaluator(3)
	defer ev.Close()
	trials := 0
	for seq := 0; seq < sequences; seq++ {
		base := randomEvalGraph(t, rnd)
		script := randomMoveScript(t, base, rnd, steps)
		for _, workers := range workerCounts {
			trials++
			g := base.Clone()
			ie := NewIncrementalEvaluator(workers)
			checkIncrementalStep(t, ie, ev, g, "initial")
			for i, op := range script {
				op.apply(t, g)
				checkIncrementalStep(t, ie, ev, g, "seq "+itoa(seq)+" step "+itoa(i)+" workers "+itoa(workers))
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
	ev := NewEvaluator(2)
	defer ev.Close()
	for trial := 0; trial < 40; trial++ {
		g := randomEvalGraph(t, rnd)
		ie := NewIncrementalEvaluator(1 + trial%3)
		checkIncrementalStep(t, ie, ev, g, "attach")
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
			checkIncrementalStep(t, ie, ev, g, "rollback "+itoa(i))
			// Re-apply for real so later candidates see fresh states, and
			// check again: the undo ops' re-flagging must not linger.
			op.apply(t, g)
			checkIncrementalStep(t, ie, ev, g, "reapply "+itoa(i))
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
	ev := NewEvaluator(1)
	defer ev.Close()
	ie := NewIncrementalEvaluator(2)
	checkIncrementalStep(t, ie, ev, g, "attach")
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
	checkIncrementalStep(t, ie, ev, g, "post-overflow")
	// And the evaluator must have re-armed a fresh log.
	if g.opOverflow || !g.opLogOn {
		t.Fatal("evaluator did not re-arm the op log after overflow")
	}
}

// TestIncrementalEvaluatorSteadyStateAllocs verifies the annealing-shaped
// cycle (mutate, evaluate, roll back, evaluate) is allocation-free once
// the cache is warm, like the sharded evaluator's steady state.
func TestIncrementalEvaluatorSteadyStateAllocs(t *testing.T) {
	g, err := RandomConnected(128, 32, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ie := NewIncrementalEvaluator(1) // workers=1: no goroutine churn in the loop
	ie.Energy(g)
	a, b := g.Edge(0)
	c, d := g.Edge(1)
	step := func() {
		for _, p := range [][2]int{{a, b}, {c, d}} {
			if err := g.Disconnect(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
		ie.PeekEnergy(g)
		if err := g.Connect(c, d); err != nil {
			t.Fatal(err)
		}
		if _, ok := ie.Energy(g); !ok {
			t.Fatal("graph disconnected")
		}
	}
	step() // warm every scratch path
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("steady-state incremental evaluation allocates %.1f times per cycle", avg)
	}
}

// FuzzIncrementalEval feeds random edge-mutation scripts (including no-op
// and revert pairs) to the incremental evaluator and cross-checks every
// state against a fresh full sweep.
func FuzzIncrementalEval(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint64(7), []byte{9, 9, 9, 9, 0, 0, 0, 0, 255, 254, 253})
	f.Add(uint64(42), []byte{})
	f.Add(uint64(20260807), []byte{1, 0, 1, 0, 1, 0, 1, 0, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		rnd := rng.New(seed)
		g := randomEvalGraph(t, rnd)
		ev := NewEvaluator(2)
		defer ev.Close()
		ie := NewIncrementalEvaluator(1 + int(seed%3))
		checkIncrementalStep(t, ie, ev, g, "attach")
		m := g.Switches()
		r := g.Radix()
		for i := 0; i+2 < len(script); i += 3 {
			op, x, y := script[i], int(script[i+1]), int(script[i+2])
			switch op % 5 {
			case 0: // disconnect an existing edge
				if g.NumEdges() == 0 {
					continue
				}
				a, b := g.Edge(x % g.NumEdges())
				if err := g.Disconnect(a, b); err != nil {
					t.Fatal(err)
				}
			case 1: // connect a feasible pair
				a, b := x%m, y%m
				if a == b || g.HasEdge(a, b) || g.Degree(a) >= r || g.Degree(b) >= r {
					continue
				}
				if err := g.Connect(a, b); err != nil {
					t.Fatal(err)
				}
			case 2: // move a host
				if g.Order() == 0 {
					continue
				}
				h := x % g.Order()
				to := y % m
				if g.SwitchOf(h) < 0 || to == g.SwitchOf(h) || g.Degree(to) >= r {
					continue
				}
				if err := g.MoveHost(h, to); err != nil {
					t.Fatal(err)
				}
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
			default: // peek without committing anything
				checkPeek(t, ie, g, "peek "+itoa(i))
				continue
			}
			checkIncrementalStep(t, ie, ev, g, "op "+itoa(i))
		}
		checkIncrementalStep(t, ie, ev, g, "final")
	})
}

// TestIncrementalStats checks the introspection counters against a
// scripted interaction: attach, commit, peek-stamp reuse and a forced
// full-rebuild fallback all leave their fingerprints.
func TestIncrementalStats(t *testing.T) {
	g, err := RandomConnected(32, 16, 10, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	ie := NewIncrementalEvaluator(2)

	ie.Energy(g) // attach: a rebuild, but not a counted sync
	s := ie.Stats()
	if s.Syncs != 0 || s.SweptSources != int64(g.Switches()) {
		t.Fatalf("after attach: %+v", s)
	}

	// A host move committed the incremental way (no rows change, so no
	// sweep happens, but the sync is counted).
	if err := g.MoveHost(0, pickTarget(t, g)); err != nil {
		t.Fatal(err)
	}
	ie.Energy(g)
	s = ie.Stats()
	if s.Syncs != 1 || s.FullRebuilds != 0 {
		t.Fatalf("after commit: %+v", s)
	}

	// Peek then commit the identical state: the commit must reuse the
	// peek's stamped dirty list, which a host move leaves empty, so no row
	// is re-swept.
	if err := g.MoveHost(0, pickTarget(t, g)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ie.PeekEnergy(g); !ok {
		t.Fatal("peek refused")
	}
	sweptBefore := ie.Stats().SweptSources
	ie.Energy(g)
	s = ie.Stats()
	if s.Peeks != 1 || s.StoredPeekReuses != 1 {
		t.Fatalf("peek stamp not reused: %+v", s)
	}
	if s.SweptSources != sweptBefore {
		t.Fatalf("peek commit swept rows: %+v", s)
	}

	// After a rewire the reused dirty list is not empty: the commit
	// re-sweeps exactly those rows (or everything, past the fallback).
	rewire(t, g, rng.New(3))
	if _, _, ok := ie.PeekEnergy(g); !ok {
		t.Fatal("peek refused")
	}
	wantSwept := int64(len(ie.dirty))
	if len(ie.dirty)*fallbackDen > g.Switches()*fallbackNum {
		wantSwept = int64(g.Switches())
	}
	sweptBefore = ie.Stats().SweptSources
	ie.Energy(g)
	s = ie.Stats()
	if s.StoredPeekReuses != 2 || wantSwept == 0 || s.SweptSources-sweptBefore != wantSwept {
		t.Fatalf("rewire commit re-swept %d rows, want %d from the reused stamp: %+v", s.SweptSources-sweptBefore, wantSwept, s)
	}

	// Batch enough genuine rewires between commits and the dirty-source
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
	if s.DirtySources == 0 || s.SweptSources <= int64(g.Switches()) {
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
