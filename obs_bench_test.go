package repro

import (
	"encoding/json"
	"io"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/runstore"
)

// Telemetry overhead benchmarks. BenchmarkAnneal is the bare
// 2-neighbor-swing annealer; each of the others adds one telemetry layer
// to the same run: live obs gauges sampled every 250 iterations, then a
// per-run stage-span trace, then one durable run-store record. The ns/op
// delta between neighbours is that layer's cost. The nil-observer path
// is guarded alloc-free by opt's TestNilObserverZeroAllocDelta and the
// disabled store by runstore's TestNilStoreIsInertAndAllocFree.

const annealBenchIters = 1000

// annealBenchOptions is the shared run: 1000 iterations of 2-neighbor
// swing, seed 2.
func annealBenchOptions() opt.Options {
	return opt.Options{Iterations: annealBenchIters, Moves: opt.TwoNeighborSwing, Seed: 2}
}

// benchAnneals times b.N anneals of an n=96, m=24, r=8 graph. run does
// one anneal; every timed run's result must equal the untimed first
// run's.
func benchAnneals(b *testing.B, run func(start *hsgraph.Graph) (opt.Result, error)) {
	b.Helper()
	start, err := hsgraph.RandomConnected(96, 24, 8, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	want, err := run(start)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(start)
		if err != nil {
			b.Fatal(err)
		}
		if res.Best != want.Best || res.Accepted != want.Accepted {
			b.Fatalf("anneal diverged: best %+v, %d accepted; want %+v, %d", res.Best, res.Accepted, want.Best, want.Accepted)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(annealBenchIters)*float64(b.N)/b.Elapsed().Seconds(), "moves/s")
}

func BenchmarkAnneal(b *testing.B) {
	benchAnneals(b, func(start *hsgraph.Graph) (opt.Result, error) {
		_, res, err := opt.Anneal(start, annealBenchOptions())
		return res, err
	})
}

func BenchmarkAnnealObserved(b *testing.B) {
	o := annealBenchOptions()
	o.ReportEvery = 250
	o.Observer = cliutil.NewAnnealObserver(obs.NewRegistry(), nil, false)
	benchAnneals(b, func(start *hsgraph.Graph) (opt.Result, error) {
		_, res, err := opt.Anneal(start, o)
		return res, err
	})
}

// BenchmarkAnnealObservedSpans adds the stage-span trace orpd gives every
// job: a root span per run, and a JSON-encoded span event, written to a
// discarded stream, at every stage boundary (never per iteration).
func BenchmarkAnnealObservedSpans(b *testing.B) {
	o := annealBenchOptions()
	o.ReportEvery = 250
	o.Observer = cliutil.NewAnnealObserver(obs.NewRegistry(), nil, false)
	emit := func(e obs.Event) { json.NewEncoder(io.Discard).Encode(e) }
	benchAnneals(b, func(start *hsgraph.Graph) (opt.Result, error) {
		root := obs.NewTracer("bench", time.Time{}, emit).Root("solve")
		o.Span = root
		_, res, err := opt.Anneal(start, o)
		root.End()
		return res, err
	})
}

// BenchmarkAnnealStored persists each traced run as one run-store record
// (metrics, energy trace, span-derived phases, fingerprint, result bytes),
// fsync included, in a store under b.TempDir().
func BenchmarkAnnealStored(b *testing.B) {
	st, err := runstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	o := annealBenchOptions()
	o.ReportEvery = 250
	o.TraceEnergy = true
	o.Observer = cliutil.NewAnnealObserver(obs.NewRegistry(), nil, false)
	var spans []obs.Event
	emit := func(e obs.Event) {
		json.NewEncoder(io.Discard).Encode(e)
		if e.Kind == obs.KindSpan {
			spans = append(spans, e)
		}
	}
	benchAnneals(b, func(start *hsgraph.Graph) (opt.Result, error) {
		spans = spans[:0]
		runStart := time.Now()
		root := obs.NewTracer("bench", time.Time{}, emit).Root("solve")
		o.Span = root
		g, res, err := opt.Anneal(start, o)
		if err != nil {
			return res, err
		}
		root.End()
		return res, st.AppendRun(func() runstore.Record {
			result, _ := json.Marshal(res.Best)
			return runstore.Record{
				Unix:        time.Now().UnixNano(),
				Tool:        "bench",
				Kind:        "anneal",
				Fingerprint: g.Fingerprint().String(),
				Seed:        o.Seed,
				N:           start.Order(),
				M:           start.Switches(),
				R:           start.Radix(),
				Metrics: runstore.MetricsOf(res.Best.HASPL, res.Best.Diameter,
					res.Best.Connected, res.Best.TotalPath, res.Best.ReachablePairs),
				EnergyTrace:       res.EnergyTrace,
				EnergyTraceStride: res.EnergyTraceStride,
				Phases:            runstore.PhasesFromDurations(obs.PhaseDurations(spans)),
				WallSeconds:       time.Since(runStart).Seconds(),
				Result:            result,
			}
		})
	})
}
