package hsgraph

import (
	"testing"

	"repro/internal/rng"
)

// randomEvalGraph builds a graph for the differential tests, deliberately
// covering the regimes the evaluators must agree on: connected graphs,
// disconnected graphs (random edge deletion and forced two-component
// builds), empty switches, hosts piled onto few switches, and graphs with
// more than 64 host-bearing switches (multi-word batches).
func randomEvalGraph(t *testing.T, rnd *rng.Rand) *Graph {
	t.Helper()
	switch rnd.Intn(4) {
	case 0: // connected, well spread
		for {
			n := 8 + rnd.Intn(200)
			m := 2 + rnd.Intn(90)
			r := 4 + rnd.Intn(12)
			if !Feasible(n, m, r) {
				continue
			}
			g, err := RandomConnected(n, m, r, rnd)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	case 1: // random deletions: connected or disconnected
		for {
			n := 8 + rnd.Intn(120)
			m := 3 + rnd.Intn(40)
			r := 4 + rnd.Intn(10)
			if !Feasible(n, m, r) {
				continue
			}
			g, err := RandomConnected(n, m, r, rnd)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1+rnd.Intn(4) && g.NumEdges() > 0; i++ {
				a, b := g.Edge(rnd.Intn(g.NumEdges()))
				if err := g.Disconnect(a, b); err != nil {
					t.Fatal(err)
				}
			}
			return g
		}
	case 2: // two islands: always disconnected across them
		// m*r >= 48 ports for at most 34 hosts, so attachment always
		// terminates even with the wrap-around scan below.
		n := 4 + 2*rnd.Intn(16) // even, <= 34
		m := 6 + 2*rnd.Intn(10) // even, >= 6
		r := 8 + rnd.Intn(8)
		g := New(n, m, r)
		half := m / 2
		for h := 0; h < n; h++ {
			s := rnd.Intn(half)
			if h%2 == 1 {
				s += half
			}
			for g.Degree(s) >= r {
				s = (s + 1) % m
			}
			if err := g.AttachHost(h, s); err != nil {
				t.Fatal(err)
			}
		}
		connectIsland := func(lo, hi int) {
			for s := lo + 1; s < hi; s++ {
				if g.Degree(s) < r && g.Degree(s-1) < r {
					if err := g.Connect(s-1, s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		connectIsland(0, half)
		connectIsland(half, m)
		return g
	default: // hosts concentrated on a few switches, many empty ones
		n := 6 + rnd.Intn(40)
		m := 6 + rnd.Intn(60)
		r := n + 4 // room to pile hosts up
		g := New(n, m, r)
		bearing := 1 + rnd.Intn(4)
		for h := 0; h < n; h++ {
			if err := g.AttachHost(h, rnd.Intn(bearing)); err != nil {
				t.Fatal(err)
			}
		}
		// Random path cover plus chords; may or may not touch the
		// host-bearing switches.
		for s := 1; s < m; s++ {
			if rnd.Intn(5) > 0 {
				if err := g.Connect(s-1, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < m/2; i++ {
			a, b := rnd.Intn(m), rnd.Intn(m)
			if a != b && !g.HasEdge(a, b) && g.Degree(a) < r && g.Degree(b) < r {
				if err := g.Connect(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}
}

// TestEvaluatorDifferential is the equivalence proof behind the sharded
// engine: on >= 100 randomized graphs, the per-source BFS oracle
// (EvaluateSlow), the serial bit-parallel sweep (Evaluate) and the sharded
// engine (EvaluateParallel / Evaluator) must agree exactly on TotalPath,
// Diameter, HASPL and connectivity — for every worker count, including
// pools wider than the source word count.
func TestEvaluatorDifferential(t *testing.T) {
	rnd := rng.New(20250805)
	shared := NewEvaluator(3)
	defer shared.Close()
	trials, disconnected, multiword := 0, 0, 0
	for trials < 120 {
		g := randomEvalGraph(t, rnd)
		trials++
		slow := g.EvaluateSlow()
		fast := g.Evaluate()
		if fast != slow {
			t.Fatalf("trial %d %v: Evaluate %+v != EvaluateSlow %+v", trials, g, fast, slow)
		}
		if !slow.Connected {
			disconnected++
		}
		bearing := 0
		for s := 0; s < g.Switches(); s++ {
			if g.HostCount(s) > 0 {
				bearing++
			}
		}
		if bearing > 64 {
			multiword++
		}
		for _, workers := range []int{1, 2, 3, 8, bearing + 1} {
			if got := g.EvaluateParallel(workers); got != slow {
				t.Fatalf("trial %d %v workers=%d: EvaluateParallel %+v != EvaluateSlow %+v",
					trials, g, workers, got, slow)
			}
		}
		// A long-lived Evaluator must behave identically across graphs of
		// varying switch counts (buffer reuse) and repeated calls.
		if got := shared.Evaluate(g); got != slow {
			t.Fatalf("trial %d %v: shared Evaluator %+v != %+v", trials, g, got, slow)
		}
		if got := shared.Evaluate(g); got != slow {
			t.Fatalf("trial %d %v: repeated shared Evaluator call diverged", trials, g)
		}
		if e, ok := shared.Energy(g); ok != slow.Connected || (ok && e != slow.TotalPath) {
			t.Fatalf("trial %d %v: Energy (%d,%v) inconsistent with %+v", trials, g, e, ok, slow)
		}
	}
	if disconnected < 10 {
		t.Fatalf("generator produced only %d disconnected graphs in %d trials", disconnected, trials)
	}
	if multiword < 5 {
		t.Fatalf("generator produced only %d multi-word graphs in %d trials", multiword, trials)
	}
}

// TestEvaluatorTrivialRegimes pins the no-sweep shortcuts against the
// serial implementations: unattached hosts, a single host-bearing switch,
// and the single-host graph.
func TestEvaluatorTrivialRegimes(t *testing.T) {
	ev := NewEvaluator(4)
	defer ev.Close()

	unattached := New(3, 2, 4) // no hosts attached anywhere
	if got, want := ev.Evaluate(unattached), unattached.Evaluate(); got != want {
		t.Fatalf("unattached hosts: %+v != %+v", got, want)
	}

	single := New(5, 3, 8) // all hosts on one switch, empty others
	for h := 0; h < 5; h++ {
		if err := single.AttachHost(h, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := single.Evaluate()
	if got := ev.Evaluate(single); got != want || !got.Connected || got.HASPL != 2 {
		t.Fatalf("single bearing switch: %+v != %+v", ev.Evaluate(single), want)
	}
	if e, ok := ev.Energy(single); !ok || e != want.TotalPath {
		t.Fatalf("Energy on single bearing switch = (%d,%v), want (%d,true)", e, ok, want.TotalPath)
	}

	lone := New(1, 1, 3)
	if err := lone.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := ev.Evaluate(lone); got != lone.Evaluate() {
		t.Fatalf("single host: %+v != %+v", got, lone.Evaluate())
	}
}

// TestEvaluatorEnergyFailsFastOnDisconnection checks the disconnection
// contract: Energy answers (0, false), taking connectivity from the
// sweep's reachable-pair count, exactly when the full evaluation reports
// a disconnected graph.
func TestEvaluatorEnergyFailsFastOnDisconnection(t *testing.T) {
	rnd := rng.New(31)
	ev := NewEvaluator(2)
	defer ev.Close()
	g, err := RandomConnected(40, 12, 6, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ev.Energy(g); !ok {
		t.Fatal("connected graph reported disconnected")
	}
	// Cut the graph: remove every edge of switch 0's neighbourhood.
	for g.SwitchDegree(0) > 0 {
		nb := int(g.Neighbors(0)[0])
		if err := g.Disconnect(0, nb); err != nil {
			t.Fatal(err)
		}
	}
	if g.HostCount(0) == 0 {
		t.Skip("switch 0 carried no hosts after generation")
	}
	if e, ok := ev.Energy(g); ok || e != 0 {
		t.Fatalf("isolated host-bearing switch not detected: Energy = (%d, %v), want (0, false)", e, ok)
	}
	if met := ev.Evaluate(g); met.Connected {
		t.Fatal("full evaluation disagrees with Energy on connectivity")
	}
}

// TestEvaluatorZeroSteadyStateAllocs asserts the amortization contract:
// once an Evaluator has seen a switch count, further evaluations of
// same-sized graphs allocate nothing — serial and pooled alike. This is
// what keeps the SA hot path out of the garbage collector.
func TestEvaluatorZeroSteadyStateAllocs(t *testing.T) {
	rnd := rng.New(9)
	g, err := RandomConnected(256, 80, 8, rnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ev := NewEvaluator(workers)
		ev.Evaluate(g) // warm up: grow scratch
		ev.Energy(g)
		if a := testing.AllocsPerRun(50, func() { ev.Evaluate(g) }); a != 0 {
			t.Errorf("workers=%d: Evaluate allocates %v per run in steady state", workers, a)
		}
		if a := testing.AllocsPerRun(50, func() { ev.Energy(g) }); a != 0 {
			t.Errorf("workers=%d: Energy allocates %v per run in steady state", workers, a)
		}
		ev.Close()
	}
}

// TestEvaluatorCloseIdempotent guards the pool teardown.
func TestEvaluatorCloseIdempotent(t *testing.T) {
	ev := NewEvaluator(3)
	ev.Close()
	ev.Close()
	serial := NewEvaluator(1)
	serial.Close()
	if NewEvaluator(0).Workers() != 1 || NewEvaluator(-2).Workers() != 1 {
		t.Fatal("worker floor not applied")
	}
}
