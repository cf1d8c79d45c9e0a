// Package repro's root benchmarks regenerate every figure of the paper at
// a reduced-but-faithful scale (one benchmark per figure/panel) and report
// the headline quantity of each as a custom metric. Full-scale runs are
// the job of cmd/orpfigures (-paper).
//
// The telemetry overhead benchmarks live in obs_bench_test.go and the
// kernel microbenchmarks (evaluator, incremental moves, snapshot codec,
// NPB over simnet) in their own packages. End-to-end latency is measured
// by bench/ (bash bench/run.sh; see bench/README.md).
package repro

import (
	"math"
	"testing"

	"repro/internal/figures"
	"repro/internal/phys"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// benchOptions keeps every figure benchmark in the seconds range.
func benchOptions() figures.Options {
	return figures.Options{
		SAIterations: 2000,
		Ranks:        64,
		Class:        'S',
		MaxIters:     2,
		Seed:         1,
		Benchmarks:   []string{"EP", "IS", "CG", "MG"},
	}
}

// BenchmarkFig5HASPLvsM regenerates a Fig. 5 panel (h-ASPL vs m with SA
// and the bounds) and reports how close the SA minimum sits to the
// continuous Moore bound minimum.
func BenchmarkFig5HASPLvsM(b *testing.B) {
	o := benchOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.Fig5(128, 12, o)
		if err != nil {
			b.Fatal(err)
		}
		gap = minOf(fig, "SA-2neighbor-swing") - minOf(fig, "continuous-Moore")
	}
	b.ReportMetric(gap, "haspl-gap-to-moore")
}

func minOf(fig figures.Figure, label string) float64 {
	best := math.Inf(1)
	for _, s := range fig.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Y < best {
				best = p.Y
			}
		}
	}
	return best
}

// BenchmarkFig6HostDistribution regenerates the host-distribution
// histogram at m_opt and reports the number of distinct host counts.
func BenchmarkFig6HostDistribution(b *testing.B) {
	o := benchOptions()
	var distinct int
	for i := 0; i < b.N; i++ {
		hist, _, err := figures.Fig6(128, 24, o)
		if err != nil {
			b.Fatal(err)
		}
		distinct = 0
		for _, c := range hist.Counts {
			if c > 0 {
				distinct++
			}
		}
	}
	b.ReportMetric(float64(distinct), "distinct-host-counts")
}

// BenchmarkFig7MooreBounds regenerates the Moore vs continuous Moore
// comparison.
func BenchmarkFig7MooreBounds(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		fig := figures.Fig7(1024, 24)
		points = len(fig.Series[0].Points) + len(fig.Series[1].Points)
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkFig8UnusedSwitches regenerates the m = n experiment and
// reports the fraction of empty switches (the paper reports > 70% at
// n = m = 1024).
func BenchmarkFig8UnusedSwitches(b *testing.B) {
	o := benchOptions()
	var emptyFrac float64
	for i := 0; i < b.N; i++ {
		hist, g, err := figures.Fig8(128, 12, o)
		if err != nil {
			b.Fatal(err)
		}
		emptyFrac = float64(hist.Counts[0]) / float64(g.Switches())
	}
	b.ReportMetric(emptyFrac, "empty-switch-fraction")
}

// comparison benchmarks: one per panel of Figs. 9 (torus), 10 (dragonfly)
// and 11 (fat-tree).

func benchComparison(b *testing.B, kind string) *figures.Comparison {
	b.Helper()
	c, err := figures.BuildComparison(kind, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// perfOptions uses the class-B message geometry at 256 ranks: the scale
// at which the h-ASPL difference between topologies becomes visible (at
// 64 ranks / class S the job is too local and latency-insensitive; see
// EXPERIMENTS.md).
func perfOptions() figures.Options {
	o := benchOptions()
	o.Ranks = 256
	o.Class = 'P'
	o.Benchmarks = []string{"CG", "MG"}
	return o
}

func benchPerformance(b *testing.B, kind string) {
	o := perfOptions()
	c := benchComparison(b, kind)
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := c.Performance(o)
		if err != nil {
			b.Fatal(err)
		}
		speedup = geomeanRatio(fig)
	}
	b.ReportMetric(speedup, "proposed-speedup-geomean")
}

// geomeanRatio computes the geometric mean of proposed/baseline Mop/s.
func geomeanRatio(fig figures.Figure) float64 {
	if len(fig.Series) != 2 {
		return 0
	}
	base, prop := fig.Series[0], fig.Series[1]
	logSum, n := 0.0, 0
	for i := range base.Points {
		if i < len(prop.Points) && base.Points[i].Y > 0 {
			logSum += math.Log(prop.Points[i].Y / base.Points[i].Y)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func benchBandwidth(b *testing.B, kind string) {
	o := benchOptions()
	c := benchComparison(b, kind)
	var bisectionRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := c.Bandwidth(o)
		if err != nil {
			b.Fatal(err)
		}
		bisectionRatio = fig.Series[1].Points[0].Y / fig.Series[0].Points[0].Y
	}
	b.ReportMetric(bisectionRatio, "proposed-bisection-ratio")
}

func benchPower(b *testing.B, kind string) {
	o := benchOptions()
	c := benchComparison(b, kind)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := c.Power(o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lastRatio(fig)
	}
	b.ReportMetric(ratio, "proposed-power-ratio")
}

func benchCost(b *testing.B, kind string) {
	o := benchOptions()
	c := benchComparison(b, kind)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := c.Cost(o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lastRatio(fig)
		bd := c.CostBreakdown()
		if len(bd.Rows) != 2 {
			b.Fatal("bad breakdown")
		}
	}
	b.ReportMetric(ratio, "proposed-cost-ratio")
}

// lastRatio is proposed/baseline at the largest sweep point.
func lastRatio(fig figures.Figure) float64 {
	base, prop := fig.Series[0], fig.Series[1]
	if len(base.Points) == 0 || len(prop.Points) == 0 {
		return 0
	}
	return prop.Points[len(prop.Points)-1].Y / base.Points[len(base.Points)-1].Y
}

func BenchmarkFig9aTorusPerformance(b *testing.B)      { benchPerformance(b, "torus") }
func BenchmarkFig9bTorusBandwidth(b *testing.B)        { benchBandwidth(b, "torus") }
func BenchmarkFig9cTorusPower(b *testing.B)            { benchPower(b, "torus") }
func BenchmarkFig9dTorusCost(b *testing.B)             { benchCost(b, "torus") }
func BenchmarkFig10aDragonflyPerformance(b *testing.B) { benchPerformance(b, "dragonfly") }
func BenchmarkFig10bDragonflyBandwidth(b *testing.B)   { benchBandwidth(b, "dragonfly") }
func BenchmarkFig10cDragonflyPower(b *testing.B)       { benchPower(b, "dragonfly") }
func BenchmarkFig10dDragonflyCost(b *testing.B)        { benchCost(b, "dragonfly") }
func BenchmarkFig11aFatTreePerformance(b *testing.B)   { benchPerformance(b, "fattree") }
func BenchmarkFig11bFatTreeBandwidth(b *testing.B)     { benchBandwidth(b, "fattree") }
func BenchmarkFig11cFatTreePower(b *testing.B)         { benchPower(b, "fattree") }
func BenchmarkFig11dFatTreeCost(b *testing.B)          { benchCost(b, "fattree") }

// Ablation benchmarks: design choices called out in DESIGN.md.

// BenchmarkAblationMoveSets compares swap / swing / 2-neighbor-swing SA
// and reports the h-ASPL advantage of the paper's combined operation.
func BenchmarkAblationMoveSets(b *testing.B) {
	o := benchOptions()
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationMoves(128, 40, 8, o)
		if err != nil {
			b.Fatal(err)
		}
		adv = res["swap"] - res["2-neighbor-swing"]
	}
	b.ReportMetric(adv, "swing-haspl-advantage")
}

// BenchmarkAblationSchedules compares cooling schedules and reports the
// hill-climbing penalty relative to geometric SA.
func BenchmarkAblationSchedules(b *testing.B) {
	o := benchOptions()
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationSchedules(128, 40, 8, o)
		if err != nil {
			b.Fatal(err)
		}
		penalty = res["hillclimb"] - res["geometric"]
	}
	b.ReportMetric(penalty, "hillclimb-haspl-penalty")
}

// BenchmarkAblationPlacement reports the slowdown of scrambled host ids
// versus the paper's depth-first placement on MG.
func BenchmarkAblationPlacement(b *testing.B) {
	o := benchOptions()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationPlacement("MG", o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res["raw"] / res["dfs"]
	}
	b.ReportMetric(ratio, "raw-over-dfs-time")
}

// BenchmarkAblationTieBreak reports hash-ECMP time over lowest-index
// time for CG.
func BenchmarkAblationTieBreak(b *testing.B) {
	o := benchOptions()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationTieBreak("CG", o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res["hash"] / res["lowest"]
	}
	b.ReportMetric(ratio, "hash-over-lowest-time")
}

// BenchmarkAblationCollectives reports the 1 MiB allreduce speedup of
// Rabenseifner over recursive doubling on the proposed topology.
func BenchmarkAblationCollectives(b *testing.B) {
	o := benchOptions()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := figures.AblationCollectives(o)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res["allreduce-rd/1048576"] / res["allreduce-rabenseifner/1048576"]
	}
	b.ReportMetric(speedup, "rabenseifner-speedup-1MiB")
}

// BenchmarkTrafficPatterns sweeps the synthetic patterns over the
// proposed topology and reports the uniform-traffic mean latency.
func BenchmarkTrafficPatterns(b *testing.B) {
	g, err := figures.ProposedTopology(1024, 16, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var uniformMean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := traffic.Sweep(nw, traffic.All(1), traffic.RunOptions{
			MessageBytes: 32768, Rounds: 2, Hosts: 256,
		})
		if err != nil {
			b.Fatal(err)
		}
		uniformMean = results[0].MeanLatSec
	}
	b.ReportMetric(uniformMean*1e6, "uniform-mean-latency-us")
}

// BenchmarkRoutingUpDownStretch measures the deadlock-freedom price on
// the proposed topology: mean up*/down* path stretch over minimal.
func BenchmarkRoutingUpDownStretch(b *testing.B) {
	g, err := figures.ProposedTopology(1024, 16, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := routing.UpDown(g)
		if err != nil {
			b.Fatal(err)
		}
		mean, _, err = routing.Stretch(g, tab)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mean, "updown-mean-stretch")
}

// BenchmarkLayoutOptimizer measures the cable-cost saving of the
// layout-conscious placement on the proposed topology.
func BenchmarkLayoutOptimizer(b *testing.B) {
	g, err := figures.ProposedTopology(1024, 16, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := phys.NewParams()
	var saving float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := phys.EvaluateLayout(g, p, phys.DefaultLayout(g, p))
		l := phys.OptimizeLayout(g, p, 20000, 1)
		after := phys.EvaluateLayout(g, p, l)
		saving = 1 - after.CableCost/before.CableCost
	}
	b.ReportMetric(saving, "cable-cost-saving-frac")
}
