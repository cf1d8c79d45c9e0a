package npb

import (
	"testing"

	"repro/internal/hsgraph"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// BenchmarkNPB times the CG and MG class S skeletons on 32 ranks over the
// fluid network simulator, on a random n=64, m=16, r=8 host-switch graph.
// Every run must reproduce the simulated time and flow count recorded at
// set-up.
func BenchmarkNPB(b *testing.B) {
	const ranks = 32
	g, err := hsgraph.RandomConnected(64, 16, 8, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := mpi.Config{FlopsPerHost: 100e9}
	for _, name := range []string{"CG", "MG"} {
		spec, err := New(name, 'S', ranks)
		if err != nil {
			b.Fatal(err)
		}
		want, err := mpi.Run(nw, ranks, cfg, spec.Program())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"-S-32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := mpi.Run(nw, ranks, cfg, spec.Program())
				if err != nil {
					b.Fatal(err)
				}
				if got.Elapsed != want.Elapsed || got.FlowsCompleted != want.FlowsCompleted {
					b.Fatalf("run: %v s, %d flows; want %v s, %d flows", got.Elapsed, got.FlowsCompleted, want.Elapsed, want.FlowsCompleted)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(want.FlowsCompleted)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
		})
	}
}
