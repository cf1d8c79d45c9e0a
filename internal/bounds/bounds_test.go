package bounds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

func TestMooreVertexBound(t *testing.T) {
	cases := []struct {
		delta, d int
		want     int64
	}{
		{3, 1, 4},  // K4
		{3, 2, 10}, // Petersen graph order
		{7, 2, 50}, // Hoffman-Singleton order
		{57, 2, 3250},
		{2, 3, 7}, // cycle C7
		{4, 0, 1},
		{0, 5, 1},
	}
	for _, c := range cases {
		if got := MooreVertexBound(c.delta, c.d); got != c.want {
			t.Errorf("MooreVertexBound(%d,%d) = %d, want %d", c.delta, c.d, got, c.want)
		}
	}
}

func TestMooreVertexBoundOverflow(t *testing.T) {
	if got := MooreVertexBound(1000, 1000); got != math.MaxInt64 {
		t.Fatalf("expected overflow sentinel, got %d", got)
	}
}

func TestASPLLowerBoundSmall(t *testing.T) {
	// Complete graph K_n: ASPL exactly 1; bound must equal 1 when K = n-1.
	for n := 3; n <= 10; n++ {
		if got := ASPLLowerBoundRegular(n, n-1); math.Abs(got-1) > 1e-12 {
			t.Errorf("K_%d bound = %v, want 1", n, got)
		}
	}
	// Petersen graph (n=10, k=3) achieves the Moore ASPL bound:
	// 3 at distance 1, 6 at distance 2 => (3+12)/9 = 5/3.
	if got := ASPLLowerBoundRegular(10, 3); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("Petersen bound = %v, want 5/3", got)
	}
}

func TestASPLLowerBoundDegenerate(t *testing.T) {
	if got := ASPLLowerBoundRegular(1, 5); got != 0 {
		t.Errorf("single vertex bound = %v", got)
	}
	if got := ASPLLowerBoundRegular(2, 1); got != 1 {
		t.Errorf("K2 bound = %v", got)
	}
	if got := ASPLLowerBoundRegular(5, 1); !math.IsInf(got, 1) {
		t.Errorf("1-regular on 5 vertices should be infeasible, got %v", got)
	}
	if got := ContinuousASPLLowerBound(5, 0.5); !math.IsInf(got, 1) {
		t.Errorf("degree 0.5 should be infeasible, got %v", got)
	}
}

func TestContinuousBoundBelowIntegerBound(t *testing.T) {
	// At integer degrees the two coincide; between them the continuous
	// bound must interpolate monotonically (higher degree => lower ASPL).
	for _, n := range []int{32, 100, 500} {
		prev := math.Inf(1)
		for k := 2.0; k <= 12; k += 0.25 {
			b := ContinuousASPLLowerBound(n, k)
			if b > prev+1e-12 {
				t.Fatalf("bound not monotone at n=%d k=%v: %v > %v", n, k, b, prev)
			}
			prev = b
		}
	}
	if ci, cc := ASPLLowerBoundRegular(100, 4), ContinuousASPLLowerBound(100, 4.0); math.Abs(ci-cc) > 1e-12 {
		t.Fatalf("integer and continuous bounds disagree at integer degree: %v vs %v", ci, cc)
	}
}

func TestDiameterLowerBound(t *testing.T) {
	cases := []struct{ n, r, want int }{
		{16, 6, 3},    // ceil(log_5 15)+1 = 2+1
		{1024, 24, 4}, // ceil(log_23 1023)+1 = 3+1? log_23(1023)=2.21 -> 3+1=4
		{4, 6, 2},     // n-1 <= r-1
		{6, 6, 2},
		{7, 6, 3},
		{1024, 12, 4}, // log_11 1023 = 2.89 -> 3; +1 = 4
		{2, 3, 2},
	}
	for _, c := range cases {
		if got := DiameterLowerBound(c.n, c.r); got != c.want {
			t.Errorf("DiameterLowerBound(%d,%d) = %d, want %d", c.n, c.r, got, c.want)
		}
	}
}

func TestDiameterLowerBoundIsValid(t *testing.T) {
	// No random connected host-switch graph may beat Theorem 1.
	rnd := rng.New(8)
	for trial := 0; trial < 30; trial++ {
		n := 6 + rnd.Intn(60)
		m := 2 + rnd.Intn(12)
		r := 4 + rnd.Intn(10)
		if !hsgraph.Feasible(n, m, r) {
			continue
		}
		g, err := hsgraph.RandomConnected(n, m, r, rnd)
		if err != nil {
			t.Fatal(err)
		}
		met := g.Evaluate()
		if !met.Connected {
			continue
		}
		if lb := DiameterLowerBound(n, r); met.Diameter < lb {
			t.Fatalf("graph (n=%d,m=%d,r=%d) has diameter %d below bound %d", n, m, r, met.Diameter, lb)
		}
	}
}

func TestHASPLLowerBoundExactCase(t *testing.T) {
	// n = (r-1)^(D-1)+1: bound is exactly D.
	// r=4, D=3: n = 9+1 = 10.
	if got := HASPLLowerBound(10, 4); got != 3 {
		t.Fatalf("HASPLLowerBound(10,4) = %v, want 3", got)
	}
	// r=6, D=2: n = 5+1 = 6.
	if got := HASPLLowerBound(6, 6); got != 2 {
		t.Fatalf("HASPLLowerBound(6,6) = %v, want 2", got)
	}
}

func TestHASPLLowerBoundSmallN(t *testing.T) {
	// n <= r: a single switch achieves h-ASPL 2 and the bound must be 2.
	for _, c := range []struct{ n, r int }{{4, 6}, {5, 8}, {3, 3}} {
		got := HASPLLowerBound(c.n, c.r)
		if got > 2+1e-12 {
			t.Errorf("HASPLLowerBound(%d,%d) = %v > 2 but a single switch achieves 2", c.n, c.r, got)
		}
	}
	// And the single-switch construction must meet it.
	g := hsgraph.New(4, 1, 6)
	for h := 0; h < 4; h++ {
		if err := g.AttachHost(h, 0); err != nil {
			t.Fatal(err)
		}
	}
	if met := g.Evaluate(); met.HASPL < HASPLLowerBound(4, 6)-1e-12 {
		t.Fatalf("construction beats bound: %v < %v", met.HASPL, HASPLLowerBound(4, 6))
	}
}

func TestHASPLLowerBoundIsValid(t *testing.T) {
	rnd := rng.New(19)
	for trial := 0; trial < 40; trial++ {
		n := 6 + rnd.Intn(100)
		m := 2 + rnd.Intn(16)
		r := 4 + rnd.Intn(12)
		if !hsgraph.Feasible(n, m, r) {
			continue
		}
		g, err := hsgraph.RandomConnected(n, m, r, rnd)
		if err != nil {
			t.Fatal(err)
		}
		met := g.Evaluate()
		if !met.Connected {
			continue
		}
		if lb := HASPLLowerBound(n, r); met.HASPL < lb-1e-9 {
			t.Fatalf("graph (n=%d,m=%d,r=%d) h-ASPL %v below Theorem 2 bound %v", n, m, r, met.HASPL, lb)
		}
	}
}

func TestHASPLBoundAtMostDiameterBound(t *testing.T) {
	check := func(nRaw, rRaw uint8) bool {
		n := 3 + int(nRaw)%500
		r := 3 + int(rRaw)%30
		return HASPLLowerBound(n, r) <= float64(DiameterLowerBound(n, r))+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestRegularHASPLBound(t *testing.T) {
	// Valid on real regular host-switch graphs.
	rnd := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		m := 2 * (3 + rnd.Intn(5))
		k := 3
		n := m * 3
		r := n/m + k
		g, err := hsgraph.RandomRegular(n, m, r, k, rnd)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := RegularHASPLBound(n, m, r)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Evaluate().HASPL; got < lb-1e-9 {
			t.Fatalf("regular graph beats Eq.2 bound: %v < %v (n=%d m=%d r=%d)", got, lb, n, m, r)
		}
	}
	if _, err := RegularHASPLBound(10, 3, 6); err == nil {
		t.Fatal("m not dividing n accepted")
	}
	if lb, err := RegularHASPLBound(12, 1, 12); err != nil || lb != 2 {
		t.Fatalf("single switch bound = %v, %v", lb, err)
	}
	if lb, _ := RegularHASPLBound(100, 1, 12); !math.IsInf(lb, 1) {
		t.Fatalf("overfull single switch should be infeasible, got %v", lb)
	}
}

func TestContinuousMatchesIntegerOnDivisors(t *testing.T) {
	n, r := 1024, 24
	for _, m := range []int{64, 128, 256, 512} {
		ci := ContinuousMooreHASPL(n, m, r)
		ii, err := RegularHASPLBound(n, m, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ci-ii) > 1e-9 {
			t.Fatalf("m=%d: continuous %v != integer %v", m, ci, ii)
		}
	}
}

func TestOptimalSwitchCountMatchesPaper(t *testing.T) {
	// Section 6: for n=1024 the paper's proposed topologies use m=194 at
	// r=15 and m=183 at r=16, chosen as the continuous Moore bound
	// minimiser. Allow +-2 for tie-breaking details.
	cases := []struct{ n, r, want int }{
		{1024, 15, 194},
		{1024, 16, 183},
	}
	for _, c := range cases {
		got, bound := OptimalSwitchCount(c.n, c.r, 0)
		if got < c.want-2 || got > c.want+2 {
			t.Errorf("OptimalSwitchCount(%d,%d) = %d (bound %v), paper uses %d", c.n, c.r, got, bound, c.want)
		}
	}
}

func TestOptimalSwitchCountSmallN(t *testing.T) {
	// n <= r: one switch is optimal and achieves bound 2.
	m, b := OptimalSwitchCount(8, 12, 0)
	if m != 1 || b != 2 {
		t.Fatalf("OptimalSwitchCount(8,12) = %d, %v; want 1, 2", m, b)
	}
}

func TestOptimalSwitchCountBoundIsMinimum(t *testing.T) {
	n, r := 512, 12
	mOpt, bOpt := OptimalSwitchCount(n, r, 0)
	for m := 1; m <= n; m++ {
		if b := ContinuousMooreHASPL(n, m, r); b < bOpt-1e-12 && hsgraph.Feasible(n, m, r) {
			t.Fatalf("m=%d has bound %v below reported optimum %v at m=%d", m, b, bOpt, mOpt)
		}
	}
}

func TestCliqueFeasible(t *testing.T) {
	// Paper Section 5.3: for n=128, r=24 a clique is possible at m=8
	// (m <= n <= m(r-m+1): 8*17 = 136 >= 128).
	if !CliqueFeasible(128, 8, 24) {
		t.Fatal("paper's clique case rejected")
	}
	if CliqueFeasible(1024, 8, 24) {
		t.Fatal("oversized clique accepted")
	}
	if CliqueFeasible(10, 5, 3) {
		t.Fatal("clique with r < m-1 accepted")
	}
	if m := MinCliqueSwitches(128, 24); m < 2 || !CliqueFeasible(128, m, 24) || CliqueFeasible(128, m-1, 24) {
		t.Fatalf("MinCliqueSwitches(128,24) = %d not minimal feasible", m)
	}
	if m := MinCliqueSwitches(1<<20, 24); m != 0 {
		t.Fatalf("MinCliqueSwitches for huge n = %d, want 0", m)
	}
}

func TestTheorem2TightnessNearClique(t *testing.T) {
	// For n=6, r=6 the bound is exactly 2 and a single switch achieves it:
	// Theorem 2 is tight there. For n=16, r=6 verify the formula value:
	// D- = ceil(log_5 15)+1 = 3, alpha = 5 - ceil((15-5)/4) = 5-3 = 2,
	// bound = 3 - 2/15.
	want := 3 - 2.0/15
	if got := HASPLLowerBound(16, 6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HASPLLowerBound(16,6) = %v, want %v", got, want)
	}
}

func TestOptimalSwitchCountMaxM(t *testing.T) {
	// Restricting the search range changes the answer when the true
	// optimum lies beyond it.
	full, _ := OptimalSwitchCount(512, 12, 0)
	capped, _ := OptimalSwitchCount(512, 12, full/2)
	if capped > full/2 {
		t.Fatalf("maxM ignored: got %d with cap %d", capped, full/2)
	}
}

func TestContinuousASPLLowerBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on n=0")
		}
	}()
	ContinuousASPLLowerBound(0, 3)
}

func TestDiameterLowerBoundPanicsOnTinyRadix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on r=2")
		}
	}()
	DiameterLowerBound(10, 2)
}

func TestHASPLLowerBoundTrivialN(t *testing.T) {
	if got := HASPLLowerBound(1, 6); got != 0 {
		t.Fatalf("n=1 bound = %v, want 0", got)
	}
	if got := DiameterLowerBound(1, 6); got != 0 {
		t.Fatalf("n=1 diameter bound = %v, want 0", got)
	}
}

func TestRegularHASPLBoundInfeasibleDegree(t *testing.T) {
	// k = r - n/m < 1: disconnected configuration.
	if lb, err := RegularHASPLBound(64, 8, 8); err != nil || !math.IsInf(lb, 1) {
		t.Fatalf("expected +Inf for k=0, got %v (%v)", lb, err)
	}
}

func TestContinuousMooreHASPLEdges(t *testing.T) {
	if b := ContinuousMooreHASPL(64, 0, 8); !math.IsInf(b, 1) {
		t.Fatalf("m=0 should be infeasible, got %v", b)
	}
	if b := ContinuousMooreHASPL(4, 1, 8); b != 2 {
		t.Fatalf("single-switch bound = %v, want 2", b)
	}
	if b := ContinuousMooreHASPL(100, 1, 8); !math.IsInf(b, 1) {
		t.Fatalf("overfull single switch should be infeasible, got %v", b)
	}
}
