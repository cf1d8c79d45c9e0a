package opt

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/rng"
	"repro/internal/topo"
)

// symStart returns the canonical symmetric test instance: the same shape
// as randomGraph(48, 12, 8, ...) but closed under a cyclic action of
// order 4.
func symStart(t *testing.T, sym int, seed uint64) *hsgraph.Graph {
	t.Helper()
	g, err := topo.RandomSymmetric(48, 12, 8, sym, seed)
	if err != nil {
		t.Fatalf("RandomSymmetric: %v", err)
	}
	return g
}

// TestSymmetricKillResume: an orbit-cache run interrupted at an arbitrary
// iteration and resumed from its v3 snapshot — including with a
// different worker count — is bit-identical to the uninterrupted run.
func TestSymmetricKillResume(t *testing.T) {
	const sym = 4
	start := pathStart(t, true, sym, 5)
	o := ckptBaseOptions()
	o.Symmetry = sym
	wantG, wantRes, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.Eval == (EvalStats{}) {
		t.Fatal("the start took the exact path; the test needs the orbit cache")
	}

	cases := []struct {
		killAt, killWorkers, resumeWorkers int
	}{
		{1, 1, 2},
		{137, 1, 3},
		{517, 3, 1},
		{799, 2, 2},
	}
	for _, tc := range cases {
		gotG, gotRes := killAndResume(t, start, o, tc.killAt, tc.killWorkers, tc.resumeWorkers)
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// TestResumeFingerprintsSymmetry: the symmetry order is as
// stream-defining as the move set, so the v3 snapshot fingerprints it.
// A mismatched explicit order refuses to resume; the zero sentinel adopts
// the stored order and reproduces the uninterrupted run bit-identically.
func TestResumeFingerprintsSymmetry(t *testing.T) {
	const sym = 4
	start := symStart(t, sym, 5)

	// Uninterrupted run.
	o := ckptBaseOptions()
	o.Symmetry = sym
	wantG, wantRes, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted half.
	path := filepath.Join(t.TempDir(), "sym.ckpt")
	var stop atomic.Bool
	ko := ckptBaseOptions()
	ko.Symmetry = sym
	ko.CheckpointPath = path
	ko.CheckpointEvery = 100
	ko.Interrupt = &stop
	ko.Observer = ObserverFunc(func(s AnnealSample) {
		if s.Iter == 300 {
			stop.Store(true)
		}
	})
	if _, _, err := Anneal(start.Clone(), ko); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}

	resume := func(symmetry int) (*hsgraph.Graph, Result, error) {
		ro := ckptBaseOptions()
		ro.Symmetry = symmetry
		ro.CheckpointPath = path
		ro.Resume = true
		return Anneal(start.Clone(), ro)
	}
	if _, _, err := resume(2); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("resume with Symmetry=2 against a sym-4 stream: want fingerprint error, got %v", err)
	}
	if _, _, err := resume(1); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("resume with explicit Symmetry=1 against a sym-4 stream: want fingerprint error, got %v", err)
	}
	gotG, gotRes, err := resume(0) // zero sentinel: adopt the stored order
	if err != nil {
		t.Fatalf("resume with Symmetry=0 sentinel: %v", err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)

	// The reverse direction: a generic stream cannot grow a symmetry.
	gpath := filepath.Join(t.TempDir(), "generic.ckpt")
	go2 := ckptBaseOptions()
	go2.CheckpointPath = gpath
	go2.CheckpointEvery = 100
	if _, _, err := Anneal(randomGraph(t, 48, 12, 8, 5), go2); err != nil {
		t.Fatal(err)
	}
	ro := ckptBaseOptions()
	ro.Symmetry = sym
	ro.CheckpointPath = gpath
	ro.Resume = true
	if _, _, err := Anneal(start.Clone(), ro); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("resume generic stream with Symmetry=%d: want fingerprint error, got %v", sym, err)
	}
}

// TestSymmetricMovesPreserveSymmetry pins the move operators directly:
// every applied symmetric move keeps the graph inside the symmetric
// subspace with the edge count (swap) and degree profile intact, and its
// undo restores the exact previous graph.
func TestSymmetricMovesPreserveSymmetry(t *testing.T) {
	const sym = 4
	g := symStart(t, sym, 9)
	rnd := rng.New(3)
	var mv [2]move
	swaps := 0
	for i := 0; i < 300; i++ {
		before := g.Fingerprint()
		edges := g.NumEdges()
		if !trySwap(g, sym, rnd, &mv[0]) {
			continue
		}
		swaps++
		if g.NumEdges() != edges {
			t.Fatalf("iteration %d: symmetric swap changed the edge count", i)
		}
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			t.Fatalf("iteration %d: symmetric swap broke the symmetry: %v", i, err)
		}
		if i%2 == 0 {
			mv[0].undo(g)
			if g.Fingerprint() != before {
				t.Fatalf("iteration %d: undo did not restore the graph", i)
			}
		}
	}
	if swaps < 50 {
		t.Fatalf("only %d symmetric swaps applied in 300 attempts", swaps)
	}

	swings := 0
	for i := 0; i < 300; i++ {
		before := g.Fingerprint()
		if !trySwing(g, sym, rnd, &mv[0]) {
			continue
		}
		swings++
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			t.Fatalf("iteration %d: symmetric swing broke the symmetry: %v", i, err)
		}
		if i%2 == 0 {
			mv[0].undo(g)
			if g.Fingerprint() != before {
				t.Fatalf("iteration %d: swing undo did not restore the graph", i)
			}
		}
	}
	if swings < 20 {
		t.Fatalf("only %d symmetric swings applied in 300 attempts", swings)
	}

	var mc MoveCounters
	accepts := 0
	for i := 0; i < 200; i++ {
		_, moved := twoNeighborSwing(g, sym, rnd, func() (int64, bool) {
			return 0, rnd.Intn(2) == 0
		}, &mc, &mv)
		if moved {
			accepts++
		}
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			t.Fatalf("iteration %d: symmetric 2-neighbor swing broke the symmetry: %v", i, err)
		}
	}
	if accepts == 0 || mc.SwingAttempts == 0 {
		t.Fatalf("symmetric 2-neighbor swing never moved (accepts=%d, attempts=%d)", accepts, mc.SwingAttempts)
	}
}

// TestSymmetryOptionValidation pins the documented error paths of the
// Symmetry option.
func TestSymmetryOptionValidation(t *testing.T) {
	start := randomGraph(t, 24, 8, 7, 1)
	if _, _, err := Anneal(start, Options{Iterations: 1, Symmetry: -1}); err == nil || !strings.Contains(err.Error(), "Symmetry") {
		t.Fatalf("negative Symmetry: want error, got %v", err)
	}
	// A start graph outside the symmetric subspace is rejected up front.
	if _, _, err := Anneal(start, Options{Iterations: 1, Symmetry: 2}); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("asymmetric start with Symmetry=2: want error, got %v", err)
	}
}
