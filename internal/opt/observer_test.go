package opt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

func observerStart(t testing.TB) *hsgraph.Graph {
	t.Helper()
	g, err := hsgraph.RandomConnected(48, 16, 6, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestObserverSamples(t *testing.T) {
	start := observerStart(t)
	var samples []AnnealSample
	_, res, err := Anneal(start, Options{
		Iterations:  2500,
		ReportEvery: 500,
		Seed:        7,
		Moves:       TwoNeighborSwing,
		Observer:    ObserverFunc(func(s AnnealSample) { samples = append(samples, s) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("want 5 samples (2500/500), got %d", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Iter != 2500 || last.Iterations != 2500 {
		t.Errorf("final sample at iter %d/%d, want 2500/2500", last.Iter, last.Iterations)
	}
	if last.Accepted != res.Accepted || last.Proposed != res.Proposed {
		t.Errorf("final sample counters %d/%d disagree with Result %d/%d",
			last.Accepted, last.Proposed, res.Accepted, res.Proposed)
	}
	if last.Moves != res.Moves {
		t.Errorf("final sample move counters %+v disagree with Result %+v", last.Moves, res.Moves)
	}
	// 2-neighbor swing: every acceptance is a swing or a counter-swing.
	if got := res.Moves.SwingAccepts + res.Moves.CounterAccepts; int(got) != res.Accepted {
		t.Errorf("swing %d + counter %d accepts != total %d",
			res.Moves.SwingAccepts, res.Moves.CounterAccepts, res.Accepted)
	}
	if res.Moves.SwingAccepts > res.Moves.SwingAttempts || res.Moves.CounterAccepts > res.Moves.CounterAttempts {
		t.Errorf("accepts exceed attempts: %+v", res.Moves)
	}
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if cur.Iter <= prev.Iter || cur.Proposed < prev.Proposed || cur.Best > prev.Best {
			t.Errorf("samples not monotone: %+v -> %+v", prev, cur)
		}
		if cur.Temp > prev.Temp {
			t.Errorf("temperature rose under geometric cooling: %g -> %g", prev.Temp, cur.Temp)
		}
	}
	if rate := last.AcceptRate(); rate < 0 || rate > 1 {
		t.Errorf("accept rate %g out of [0,1]", rate)
	}
}

func TestObserverSharedAcrossRestarts(t *testing.T) {
	start := observerStart(t)
	var mu sync.Mutex
	seen := map[int]int{}
	_, _, err := ParallelAnneal(start, Options{
		Iterations:  1200,
		ReportEvery: 300,
		Seed:        5,
		Workers:     1,
		Observer: ObserverFunc(func(s AnnealSample) {
			mu.Lock()
			seen[s.Restart]++
			mu.Unlock()
		}),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if seen[r] != 4 {
			t.Errorf("restart %d emitted %d samples, want 4", r, seen[r])
		}
	}
}

func TestEnergyTraceBoundedAndMonotone(t *testing.T) {
	start := observerStart(t)
	const max = 8
	_, res, err := Anneal(start, Options{
		Iterations:     6000,
		ReportEvery:    100, // 60 intervals, forcing several decimations
		Seed:           9,
		TraceEnergy:    true,
		energyTraceMax: max,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EnergyTrace) == 0 || len(res.EnergyTrace) > max {
		t.Fatalf("trace length %d, want 1..%d", len(res.EnergyTrace), max)
	}
	if res.EnergyTraceStride < 100 || res.EnergyTraceStride%100 != 0 {
		t.Errorf("stride %d not a multiple of ReportEvery", res.EnergyTraceStride)
	}
	for i := 1; i < len(res.EnergyTrace); i++ {
		if res.EnergyTrace[i] > res.EnergyTrace[i-1] {
			t.Errorf("best-energy trace rose at %d: %v", i, res.EnergyTrace)
		}
	}
	// The trace ends at (or above: it is decimated and the final interval
	// may be dropped) the best energy the run reports.
	if tail := res.EnergyTrace[len(res.EnergyTrace)-1]; tail < float64(res.Best.TotalPath) {
		t.Errorf("trace tail %g below final best %d", tail, res.Best.TotalPath)
	}

	// Disabled by default.
	_, res2, err := Anneal(start, Options{Iterations: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res2.EnergyTrace != nil {
		t.Error("EnergyTrace populated without TraceEnergy")
	}
}

// TestNilObserverZeroAllocDelta is the in-tree twin of the root
// BenchmarkAnneal/BenchmarkAnnealObserved pair: the telemetry layer must
// add no per-sample (let alone per-iteration) allocations. A deterministic
// seed makes the two runs propose and clone identically, so any alloc
// difference is telemetry-induced. The 800-iteration run samples 4 times;
// a tolerance below that catches a single alloc per sample while ignoring
// runtime noise (mcache refills land on one run or the other, worth ~1
// alloc out of ~1400 either way).
func TestNilObserverZeroAllocDelta(t *testing.T) {
	start := observerStart(t)
	run := func(observer Observer) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Anneal(start, Options{
				Iterations:  800,
				ReportEvery: 200,
				Seed:        11,
				Observer:    observer,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(nil)
	observed := run(ObserverFunc(func(AnnealSample) {}))
	if math.Abs(observed-base) >= 3 {
		t.Errorf("observer path allocates: nil=%v allocs/run, no-op observer=%v", base, observed)
	}
}
