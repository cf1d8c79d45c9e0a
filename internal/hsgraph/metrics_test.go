package hsgraph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestEvaluateRingByHand(t *testing.T) {
	// 4 switches in a ring, 4 hosts each (Fig. 1-like):
	// inter-switch pairs: 4 adjacent switch pairs at d=1 (ell=3) and 2
	// opposite pairs at d=2 (ell=4); intra: 4 * C(4,2) pairs at ell=2.
	g, err := Ring(16, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(16*3*4 + 16*4*2 + 4*6*2)
	met := g.Evaluate()
	if !met.Connected {
		t.Fatal("ring reported disconnected")
	}
	if met.TotalPath != want {
		t.Fatalf("TotalPath = %d, want %d", met.TotalPath, want)
	}
	if met.Diameter != 4 {
		t.Fatalf("Diameter = %d, want 4", met.Diameter)
	}
	wantASPL := float64(want) / 120
	if math.Abs(met.HASPL-wantASPL) > 1e-12 {
		t.Fatalf("HASPL = %v, want %v", met.HASPL, wantASPL)
	}
}

func TestEvaluateSingleSwitch(t *testing.T) {
	g := New(5, 1, 8)
	for h := 0; h < 5; h++ {
		if err := g.AttachHost(h, 0); err != nil {
			t.Fatal(err)
		}
	}
	met := g.Evaluate()
	if !met.Connected || met.HASPL != 2 || met.Diameter != 2 {
		t.Fatalf("single switch metrics wrong: %+v", met)
	}
}

func TestEvaluateDisconnected(t *testing.T) {
	g := New(2, 2, 3)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachHost(1, 1); err != nil {
		t.Fatal(err)
	}
	met := g.Evaluate()
	if met.Connected {
		t.Fatal("disconnected graph reported connected")
	}
	slow := g.EvaluateSlow()
	if slow.Connected {
		t.Fatal("EvaluateSlow missed disconnection")
	}
}

func TestEvaluateMatchesSlow(t *testing.T) {
	rnd := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rnd.Intn(120)
		m := 2 + rnd.Intn(20)
		r := 4 + rnd.Intn(20)
		if !Feasible(n, m, r) {
			continue
		}
		g, err := RandomConnected(n, m, r, rnd)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fast, slow := g.Evaluate(), g.EvaluateSlow()
		if fast.TotalPath != slow.TotalPath || fast.Diameter != slow.Diameter || fast.Connected != slow.Connected {
			t.Fatalf("trial %d (n=%d,m=%d,r=%d): fast %+v != slow %+v", trial, n, m, r, fast, slow)
		}
	}
}

func TestEvaluateMatchesSlowLargeBatch(t *testing.T) {
	// Force >64 host-bearing switches so bit-parallel batching exercises
	// multiple words.
	rnd := rng.New(5)
	g, err := RandomConnected(300, 150, 8, rnd)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := g.Evaluate(), g.EvaluateSlow()
	if fast.TotalPath != slow.TotalPath || fast.Diameter != slow.Diameter {
		t.Fatalf("fast %+v != slow %+v", fast, slow)
	}
}

func TestEvaluateWithEmptySwitches(t *testing.T) {
	// Hosts only on switches 0 and 2 of a path 0-1-2: d(0,2)=2, ell=4.
	g := New(4, 3, 4)
	for h, s := range []int{0, 0, 2, 2} {
		if err := g.AttachHost(h, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	met := g.Evaluate()
	// pairs: within 0: 1 pair ell 2; within 2: 1 pair ell 2; across: 4 pairs ell 4.
	want := int64(2 + 2 + 4*4)
	if met.TotalPath != want || met.Diameter != 4 {
		t.Fatalf("metrics %+v, want total %d diam 4", met, want)
	}
}

func TestHostDistance(t *testing.T) {
	g, err := Path(6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Hosts 0,1 on switch 0; 2,3 on switch 1; 4,5 on switch 2.
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 2}, {0, 2, 3}, {0, 4, 4}, {2, 5, 3}, {4, 5, 2},
	}
	for _, c := range cases {
		if got := g.HostDistance(c.a, c.b); got != c.want {
			t.Fatalf("HostDistance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHostDistanceSumMatchesTotal(t *testing.T) {
	rnd := rng.New(123)
	g, err := RandomConnected(24, 6, 7, rnd)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for a := 0; a < 24; a++ {
		for b := a + 1; b < 24; b++ {
			d := g.HostDistance(a, b)
			if d < 0 {
				t.Fatal("unexpected disconnection")
			}
			total += int64(d)
		}
	}
	if met := g.Evaluate(); met.TotalPath != total {
		t.Fatalf("Evaluate total %d != pairwise sum %d", met.TotalPath, total)
	}
}

func TestEquation1OnRegularGraphs(t *testing.T) {
	// For k-regular host-switch graphs, Evaluate must agree with Eq. 1
	// applied to the switch graph's ASPL.
	rnd := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		m := 2 * (3 + rnd.Intn(5)) // even so that m*k is even for odd k
		k := 3
		n := m * (2 + rnd.Intn(3))
		r := n/m + k
		g, err := RandomRegular(n, m, r, k, rnd)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sa, _, ok := g.SwitchASPL()
		if !ok {
			t.Fatal("switch graph disconnected")
		}
		want := RegularHASPLFromSwitchASPL(sa, n, m)
		got := g.Evaluate().HASPL
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Eq.1 gives %v, Evaluate gives %v (n=%d m=%d)", trial, want, got, n, m)
		}
	}
}

func TestSwitchDistancesSymmetric(t *testing.T) {
	rnd := rng.New(42)
	g, err := RandomConnected(30, 10, 6, rnd)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.SwitchDistances()
	for a := range dist {
		if dist[a][a] != 0 {
			t.Fatalf("d(%d,%d) = %d", a, a, dist[a][a])
		}
		for b := range dist[a] {
			if dist[a][b] != dist[b][a] {
				t.Fatalf("asymmetric distance (%d,%d)", a, b)
			}
		}
	}
	// Triangle inequality.
	m := len(dist)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			for c := 0; c < m; c++ {
				if dist[a][b] >= 0 && dist[b][c] >= 0 && dist[a][c] >= 0 &&
					dist[a][c] > dist[a][b]+dist[b][c] {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestMetricsOnStar(t *testing.T) {
	// Star with hub: hosts spread over 5 switches (1 hub + 4 leaves),
	// 10 hosts => 2 per switch.
	g, err := Star(10, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	met := g.Evaluate()
	// Pairs: intra 5*C(2,2)... 5 switches * 1 pair * ell2 = 10.
	// hub-leaf: 4 leaf switches * (2*2 pairs) * ell3 = 48.
	// leaf-leaf: C(4,2)=6 switch pairs * 4 * ell4 = 96.
	want := int64(10 + 48 + 96)
	if met.TotalPath != want || met.Diameter != 4 {
		t.Fatalf("star metrics %+v, want total=%d diam=4", met, want)
	}
}

func BenchmarkEvaluateBitParallel(b *testing.B) {
	rnd := rng.New(1)
	g, err := RandomConnected(1024, 194, 15, rnd)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Evaluate()
	}
}

func BenchmarkEvaluateSlow(b *testing.B) {
	rnd := rng.New(1)
	g, err := RandomConnected(1024, 194, 15, rnd)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EvaluateSlow()
	}
}
