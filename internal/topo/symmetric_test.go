package topo

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hsgraph"
)

// TestRandomSymmetricValid sweeps a parameter grid and checks the
// generator's full contract: connected, radix-respecting graphs closed
// under the cyclic action, with hosts spread orbit-evenly.
func TestRandomSymmetricValid(t *testing.T) {
	cases := []struct {
		n, m, r, sym int
	}{
		{24, 6, 8, 2},
		{24, 6, 8, 3},
		{24, 6, 8, 6},
		{96, 12, 12, 4},
		{100, 12, 14, 2}, // n%m = 4, spread over orbits of 2
		{102, 12, 14, 3}, // n%m = 6, spread over orbits of 3
		{256, 56, 12, 4}, // the orpsolve smoke-test shape
		{48, 16, 7, 8},   // many small orbits
		{30, 15, 6, 5},   // odd orbit count
		{8, 4, 6, 4},     // q = 1: every switch in one orbit family
		{64, 32, 5, 2},   // tight radix
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := RandomSymmetric(tc.n, tc.m, tc.r, tc.sym, seed)
			if err != nil {
				t.Fatalf("RandomSymmetric(%d,%d,%d,%d,seed=%d): %v", tc.n, tc.m, tc.r, tc.sym, seed, err)
			}
			if g.Order() != tc.n || g.Switches() != tc.m || g.Radix() != tc.r {
				t.Fatalf("case %+v: got n=%d m=%d r=%d", tc, g.Order(), g.Switches(), g.Radix())
			}
			if err := hsgraph.VerifySymmetric(g, tc.sym); err != nil {
				t.Fatalf("case %+v seed=%d: %v", tc, seed, err)
			}
			if !g.HostsConnected() {
				t.Fatalf("case %+v seed=%d: disconnected", tc, seed)
			}
			for s := 0; s < tc.m; s++ {
				if g.Degree(s) > tc.r {
					t.Fatalf("case %+v seed=%d: switch %d degree %d exceeds radix", tc, seed, s, g.Degree(s))
				}
			}
			// Determinism: the same seed reproduces the same graph.
			g2, err := RandomSymmetric(tc.n, tc.m, tc.r, tc.sym, seed)
			if err != nil {
				t.Fatal(err)
			}
			if g.Fingerprint() != g2.Fingerprint() {
				t.Fatalf("case %+v seed=%d: not deterministic", tc, seed)
			}
		}
	}
}

func TestRandomSymmetricRejects(t *testing.T) {
	cases := []struct {
		name         string
		n, m, r, sym int
		needle       string
	}{
		{"sym-too-small", 24, 6, 8, 1, "symmetry"},
		{"m-not-multiple", 24, 7, 8, 2, "multiple"},
		{"remainder-not-orbit-even", 25, 6, 8, 2, "orbit-evenly"},
		{"radix-too-small", 96, 6, 3, 2, "radix"},
		{"m-too-small", 4, 2, 8, 2, ">= 3"},
	}
	for _, tc := range cases {
		_, err := RandomSymmetric(tc.n, tc.m, tc.r, tc.sym, 1)
		if err == nil || !strings.Contains(err.Error(), tc.needle) {
			t.Fatalf("%s: want error containing %q, got %v", tc.name, tc.needle, err)
		}
	}
}

// TestRandomRegularSymmetric checks the ODP-shaped generator: d-regular
// switch graphs, one host per switch, closed under the action.
func TestRandomRegularSymmetric(t *testing.T) {
	cases := []struct {
		n, d, sym int
	}{
		{24, 4, 2},
		{24, 4, 3},
		{24, 3, 2}, // odd degree: antipodal matching, m even forced
		{36, 5, 4}, // odd degree, sym 4
		{30, 6, 5},
		{64, 3, 8},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := RandomRegularSymmetric(tc.n, tc.n, tc.d+1, tc.d, tc.sym, seed)
			if err != nil {
				t.Fatalf("RandomRegularSymmetric(n=%d,d=%d,sym=%d,seed=%d): %v", tc.n, tc.d, tc.sym, seed, err)
			}
			if err := hsgraph.VerifySymmetric(g, tc.sym); err != nil {
				t.Fatalf("n=%d d=%d sym=%d seed=%d: %v", tc.n, tc.d, tc.sym, seed, err)
			}
			if !g.HostsConnected() {
				t.Fatalf("n=%d d=%d sym=%d seed=%d: disconnected", tc.n, tc.d, tc.sym, seed)
			}
			for s := 0; s < g.Switches(); s++ {
				if got := g.SwitchDegree(s); got != tc.d {
					t.Fatalf("n=%d d=%d sym=%d seed=%d: switch %d degree %d", tc.n, tc.d, tc.sym, seed, s, got)
				}
				if g.HostCount(s) != 1 {
					t.Fatalf("n=%d d=%d sym=%d seed=%d: switch %d carries %d hosts", tc.n, tc.d, tc.sym, seed, s, g.HostCount(s))
				}
			}
		}
	}
	// Odd degree with odd m has no valid handshake, and sym must divide m.
	if _, err := RandomRegularSymmetric(25, 25, 4, 3, 5, 1); err == nil {
		t.Fatal("want error for odd degree on odd m")
	}
	if _, err := RandomRegularSymmetric(24, 24, 5, 4, 7, 1); err == nil {
		t.Fatal("want error when sym does not divide m")
	}
}

// TestIsAntipodal pins the half-turn fixed-pair predicate the generators
// and move operators use to keep every edge orbit full-size.
func TestIsAntipodal(t *testing.T) {
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
		if got := isAntipodal(tc.m, tc.sym, tc.a, tc.b); got != tc.want {
			t.Fatalf("isAntipodal(m=%d,sym=%d,%d,%d) = %v, want %v", tc.m, tc.sym, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestRandomSymmetricPinned pins the generator's output, storage order
// included, at the scale cell (n=16384, m=4060, r=16, order 4) and at the
// orpsolve smoke-test cell: the full-endpoint skip in its saturation sweep
// must only save work, never change the graph an anneal starts from.
func TestRandomSymmetricPinned(t *testing.T) {
	cases := []struct {
		n, m, r, sym int
		seed         uint64
		fp, state    string
	}{
		{16384, 4060, 16, 4, 1, "378d45e3aca160a3eccabbfdfd50d33133920f5f3200a07e39f356ab1a27361f", "0b89ec79e1d76ab54c988c14447f777333388ea3ab45c9cefcb5b50266e31146"},
		{16384, 4060, 16, 4, 2, "ea732d8e0c8f362e5e5c58ff9eb896958b04e474e6ad710150128b6c728b76b3", "f038f898d7913470e02d0ff194bf476fa2908c174c850e48aa52503a78b64dbf"},
		{16384, 4060, 16, 4, 3, "046f08e72e5c48095ffeb06a4ed01add716df4dc154a3fb72e76c26de12344ab", "43fb33a2355cf704082b5413d6197b27c0c162c1f5bf4c8adf0c7c7b3cc06485"},
		{256, 56, 12, 4, 1, "7daa9ae1182665bd5c5d26abf858aa99c2bae2e4c8dd4b83c99dc6f1cc121705", "749ce78df3b16359d0ed59eb77d44a8d9fe93c58cd2f22b1e8cf17bb89088f94"},
		{256, 56, 12, 4, 2, "d4a564c96cd3c338ce6b734d181f3c095b638e810d1b2280084048434078ea00", "2c98a90968dac27befd11f1725a0022f2b7d4f52e2c612a125005bc03c8d6024"},
		{256, 56, 12, 4, 3, "b16baa1b8d4eb46b15f0a755023f4e0181f96fa2ab5f9613947be87031805350", "828c3cfdef7205be87720ec42da0db650c32babf23d2937653a82d52092c9381"},
	}
	for _, tc := range cases {
		g, err := RandomSymmetric(tc.n, tc.m, tc.r, tc.sym, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Fingerprint().String(); got != tc.fp {
			t.Errorf("RandomSymmetric(%d,%d,%d,%d,seed=%d) fingerprint %s, want %s", tc.n, tc.m, tc.r, tc.sym, tc.seed, got, tc.fp)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(g.MarshalState())); got != tc.state {
			t.Errorf("RandomSymmetric(%d,%d,%d,%d,seed=%d) state digest %s, want %s", tc.n, tc.m, tc.r, tc.sym, tc.seed, got, tc.state)
		}
	}
}
