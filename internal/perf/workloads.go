package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/bounds"
	"repro/internal/ckpt"
	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/runstore"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// The canonical workload set. Sizes are fixed per workload (they are part
// of the name and hence of the trajectory); short mode only reduces
// repetition counts in the harness. Each family covers one subsystem the
// ROADMAP treats as a hot path:
//
//	eval    serial vs bit-parallel vs sharded h-ASPL evaluation
//	anneal  the SA move loop per move set, plus the observed variant
//	simnet  NPB communication skeletons on the fluid simulator
//	fault   Monte-Carlo degradation sweeps
//	ckpt    snapshot encode/decode round trips
//	serve   orpd cache-hit submissions (scheduler core and HTTP path)
func init() {
	for _, c := range []struct{ n, r int }{{512, 12}, {1024, 24}} {
		registerEval(c.n, c.r)
	}
	registerEvalIncremental(1024, 9)
	for _, moves := range []opt.MoveSet{opt.SwapOnly, opt.SwingOnly, opt.TwoNeighborSwing} {
		registerAnneal(moves)
	}
	registerAnnealObserved()
	registerAnnealObservedSpans()
	registerAnnealStored()
	registerAnnealSharded()
	registerAnnealExact()
	registerEvalOrbit()
	registerAnnealSymmetric()
	registerSimnet("CG")
	registerSimnet("MG")
	registerFaultSweep()
	registerCkpt()
	registerServe()
}

// evalGraph builds the deterministic evaluation input at m = m_opt.
func evalGraph(n, r int) (*hsgraph.Graph, error) {
	m, _ := bounds.OptimalSwitchCount(n, r, 0)
	return hsgraph.RandomConnected(n, m, r, rng.New(1))
}

func registerEval(n, r int) {
	pairs := float64(n) * float64(n-1) / 2
	suffix := fmt.Sprintf("n=%d,r=%d", n, r)
	Register(Workload{
		Name:   "eval/serial/" + suffix,
		Family: "eval",
		Doc:    "h-ASPL via one plain BFS per host-bearing switch",
		Unit:   "pairs",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			want := g.Evaluate().TotalPath
			return &Instance{Run: func() (float64, error) {
				if met := g.EvaluateSlow(); met.TotalPath != want {
					return 0, fmt.Errorf("serial evaluation diverged: %d vs %d", met.TotalPath, want)
				}
				return pairs, nil
			}}, nil
		},
	})
	Register(Workload{
		Name:   "eval/bitparallel/" + suffix,
		Family: "eval",
		Doc:    "h-ASPL via the 64-sources-per-word bit-parallel sweep",
		Unit:   "pairs",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			return &Instance{Run: func() (float64, error) {
				g.Evaluate()
				return pairs, nil
			}}, nil
		},
	})
	Register(Workload{
		Name:   "eval/sharded/" + suffix,
		Family: "eval",
		Doc:    "h-ASPL via the persistent sharded evaluator pool (GOMAXPROCS workers)",
		Unit:   "pairs",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			want := g.Evaluate().TotalPath
			ev := hsgraph.NewEvaluator(runtime.GOMAXPROCS(0))
			return &Instance{
				Run: func() (float64, error) {
					if met := ev.Evaluate(g); met.TotalPath != want {
						return 0, fmt.Errorf("sharded evaluation diverged: %d vs %d", met.TotalPath, want)
					}
					return pairs, nil
				},
				Close: ev.Close,
			}, nil
		},
	})
}

// registerEvalIncremental measures the dirty-source resweep that backs
// the incremental evaluation mode: a fixed script of edge remove/re-add
// moves, each followed by an incremental Energy, so the cost per move is the resweep
// of the move's dirty cone rather than a full sweep. The script restores
// the starting edge set, so every rep does identical work.
func registerEvalIncremental(n, r int) {
	const moves = 32
	Register(Workload{
		Name:   fmt.Sprintf("eval/incremental/n=%d,r=%d", n, r),
		Family: "eval",
		Doc:    "h-ASPL after single-edge moves via the dirty-source incremental evaluator",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			// Pick the move script once, by endpoints: edge indices shift
			// as Disconnect/Connect reorder the internal edge list, but
			// the same (a, b) sequence means the same work every rep.
			rnd := rng.New(11)
			type pair struct{ a, b int }
			picked := make(map[pair]bool, moves)
			script := make([]pair, 0, moves)
			for len(script) < moves {
				a, b := g.Edge(rnd.Intn(g.NumEdges()))
				if p := (pair{a, b}); !picked[p] {
					picked[p] = true
					script = append(script, p)
				}
			}
			ie := hsgraph.NewIncrementalEvaluator(runtime.GOMAXPROCS(0))
			want, _ := ie.Energy(g) // prime the cache
			return &Instance{Run: func() (float64, error) {
				for _, p := range script {
					if err := g.Disconnect(p.a, p.b); err != nil {
						return 0, err
					}
					ie.Energy(g)
					if err := g.Connect(p.a, p.b); err != nil {
						return 0, err
					}
					if e, ok := ie.Energy(g); !ok || e != want {
						return 0, fmt.Errorf("incremental evaluation diverged after revert: %d vs %d", e, want)
					}
				}
				return moves, nil
			}}, nil
		},
	})
}

// annealStart is the shared SA benchmark input (the obs-bench graph).
func annealStart() (*hsgraph.Graph, error) {
	return hsgraph.RandomConnected(96, 24, 8, rng.New(1))
}

const annealIters = 1000

func annealInstance(o opt.Options) (*Instance, error) {
	start, err := annealStart()
	if err != nil {
		return nil, err
	}
	return &Instance{Run: func() (float64, error) {
		if _, _, err := opt.Anneal(start, o); err != nil {
			return 0, err
		}
		return float64(o.Iterations), nil
	}}, nil
}

func registerAnneal(moves opt.MoveSet) {
	Register(Workload{
		Name:   fmt.Sprintf("anneal/%s/n=96,iters=%d", moves, annealIters),
		Family: "anneal",
		Doc:    fmt.Sprintf("SA hot path, %s move set, serial evaluation", moves),
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			return annealInstance(opt.Options{Iterations: annealIters, Moves: moves, Seed: 2})
		},
	})
}

// registerAnnealObserved pairs anneal/2-neighbor-swing with the full
// telemetry observer, so the trajectory records the observer overhead the
// obs layer promises to keep negligible.
func registerAnnealObserved() {
	Register(Workload{
		Name:   fmt.Sprintf("anneal/observed/n=96,iters=%d", annealIters),
		Family: "anneal",
		Doc:    "SA hot path (2-neighbor-swing) with live obs gauges sampled every 250 iterations",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			reg := obs.NewRegistry()
			return annealInstance(opt.Options{
				Iterations:  annealIters,
				Moves:       opt.TwoNeighborSwing,
				Seed:        2,
				ReportEvery: 250,
				Observer:    cliutil.NewAnnealObserver(reg, nil, false),
			})
		},
	})
}

// registerAnnealObservedSpans adds the causal stage-span trace on top of
// the observed workload: the run carries a root span and every stage
// boundary (init, loop, checkpoints, final eval) emits a JSON-encoded
// span event, the exact shape orpd gives every job. The delta against
// anneal/observed is the whole tracing cost, which the obs layer
// promises stays within noise of the move loop (spans fire per stage,
// never per iteration).
func registerAnnealObservedSpans() {
	Register(Workload{
		Name:   fmt.Sprintf("anneal/observed-spans/n=96,iters=%d", annealIters),
		Family: "anneal",
		Doc:    "anneal/observed plus a per-run stage-span trace, JSON-encoded to a discarded stream",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			start, err := annealStart()
			if err != nil {
				return nil, err
			}
			reg := obs.NewRegistry()
			emit := func(e obs.Event) { json.NewEncoder(io.Discard).Encode(e) }
			return &Instance{Run: func() (float64, error) {
				root := obs.NewTracer("perf", time.Time{}, emit).Root("solve")
				o := opt.Options{
					Iterations:  annealIters,
					Moves:       opt.TwoNeighborSwing,
					Seed:        2,
					ReportEvery: 250,
					Observer:    cliutil.NewAnnealObserver(reg, nil, false),
					Span:        root,
				}
				if _, _, err := opt.Anneal(start, o); err != nil {
					return 0, err
				}
				root.End()
				return float64(annealIters), nil
			}}, nil
		},
	})
}

// registerAnnealStored layers the run store on top of
// anneal/observed-spans: each rep runs the same traced anneal and then
// persists one full record — metrics, energy trace, span-derived phase
// decomposition, graph fingerprint, result bytes — to a real on-disk
// store, fsync included. The delta against anneal/observed-spans is the
// entire persistence cost, which must stay inside the <3% telemetry
// overhead budget (the store writes once per completed run, never per
// iteration).
func registerAnnealStored() {
	Register(Workload{
		Name:   fmt.Sprintf("anneal/stored/n=96,iters=%d", annealIters),
		Family: "anneal",
		Doc:    "anneal/observed-spans plus one durable run-store record append per run",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			start, err := annealStart()
			if err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp("", "orp-perf-store-*")
			if err != nil {
				return nil, err
			}
			st, err := runstore.Open(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			reg := obs.NewRegistry()
			var spans []obs.Event
			emit := func(e obs.Event) {
				json.NewEncoder(io.Discard).Encode(e)
				if e.Kind == obs.KindSpan {
					spans = append(spans, e)
				}
			}
			return &Instance{
				Run: func() (float64, error) {
					spans = spans[:0]
					runStart := time.Now()
					root := obs.NewTracer("perf", time.Time{}, emit).Root("solve")
					o := opt.Options{
						Iterations:  annealIters,
						Moves:       opt.TwoNeighborSwing,
						Seed:        2,
						ReportEvery: 250,
						TraceEnergy: true,
						Observer:    cliutil.NewAnnealObserver(reg, nil, false),
						Span:        root,
					}
					g, res, err := opt.Anneal(start, o)
					if err != nil {
						return 0, err
					}
					root.End()
					if err := st.AppendRun(func() runstore.Record {
						result, _ := json.Marshal(res.Best)
						return runstore.Record{
							Unix:        time.Now().UnixNano(),
							Tool:        "orpbench",
							Kind:        "anneal",
							Fingerprint: g.Fingerprint().String(),
							Seed:        2,
							N:           96,
							M:           24,
							R:           8,
							Metrics: runstore.MetricsOf(res.Best.HASPL, res.Best.Diameter,
								res.Best.Connected, res.Best.TotalPath, res.Best.ReachablePairs),
							EnergyTrace:       res.EnergyTrace,
							EnergyTraceStride: res.EnergyTraceStride,
							Phases:            runstore.PhasesFromDurations(obs.PhaseDurations(spans)),
							WallSeconds:       time.Since(runStart).Seconds(),
							Result:            result,
						}
					}); err != nil {
						return 0, err
					}
					return float64(annealIters), nil
				},
				Close: func() {
					st.Close()
					os.RemoveAll(dir)
				},
			}, nil
		},
	})
}

// registerAnnealSharded exercises the anneal loop over the sharded
// evaluator at a scale where sharding pays.
func registerAnnealSharded() {
	const n, r, iters = 512, 12, 300
	Register(Workload{
		Name:   fmt.Sprintf("anneal/sharded/n=%d,r=%d,iters=%d", n, r, iters),
		Family: "anneal",
		Doc:    "SA hot path with GOMAXPROCS evaluation shard workers",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			m, _ := bounds.OptimalSwitchCount(n, r, 0)
			start, err := hsgraph.RandomConnected(n, m, r, rng.New(1))
			if err != nil {
				return nil, err
			}
			o := opt.Options{Iterations: iters, Seed: 2, Workers: runtime.GOMAXPROCS(0)}
			return &Instance{Run: func() (float64, error) {
				if _, _, err := opt.Anneal(start, o); err != nil {
					return 0, err
				}
				return float64(iters), nil
			}}, nil
		},
	})
}

// registerAnnealExact measures the SA hot path at paper scale (n=1024) on
// the exact evaluation mode: r=9 swing moves put the dirty cone at ~a
// quarter of the switches, and a single worker keeps it a straight
// single-thread measurement instead of goroutine scheduling.
func registerAnnealExact() {
	const n, r, iters = 1024, 9, 2000
	Register(Workload{
		Name:   fmt.Sprintf("anneal/exact/n=%d,r=%d,iters=%d", n, r, iters),
		Family: "anneal",
		Doc:    "SA hot path at paper scale, exact evaluation mode",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			start, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			// Explicit temperatures skip the shared calibration phase,
			// so the measurement is the move loop itself.
			o := opt.Options{Iterations: iters, Seed: 2, Workers: 1,
				Moves: opt.SwingOnly, Eval: opt.EvalExact,
				InitialTemp: 500, FinalTemp: 2.5}
			return &Instance{Run: func() (float64, error) {
				if _, _, err := opt.Anneal(start, o); err != nil {
					return 0, err
				}
				return float64(iters), nil
			}}, nil
		},
	})
}

func registerSimnet(bench string) {
	const ranks = 32
	Register(Workload{
		Name:   fmt.Sprintf("simnet/npb/%s-S-%d", bench, ranks),
		Family: "simnet",
		Doc:    fmt.Sprintf("NPB %s class S on %d ranks over the fluid simulator", bench, ranks),
		Unit:   "flows",
		Setup: func(Config) (*Instance, error) {
			g, err := hsgraph.RandomConnected(64, 16, 8, rng.New(7))
			if err != nil {
				return nil, err
			}
			nw, err := simnet.NewNetwork(g, simnet.Config{})
			if err != nil {
				return nil, err
			}
			spec, err := npb.New(bench, 'S', ranks)
			if err != nil {
				return nil, err
			}
			cfg := mpi.Config{FlopsPerHost: 100e9}
			return &Instance{Run: func() (float64, error) {
				stats, err := mpi.Run(nw, ranks, cfg, spec.Program())
				if err != nil {
					return 0, err
				}
				return float64(stats.FlowsCompleted), nil
			}}, nil
		},
	})
}

func registerFaultSweep() {
	Register(Workload{
		Name:   "fault/sweep/links/n=128,trials=6",
		Family: "fault",
		Doc:    "Monte-Carlo link-failure sweep, 3 fractions x 6 trials, full worker pool",
		Unit:   "trials",
		Setup: func(Config) (*Instance, error) {
			g, err := hsgraph.RandomConnected(128, 32, 10, rng.New(3))
			if err != nil {
				return nil, err
			}
			o := fault.SweepOptions{
				Model:     fault.UniformLinks,
				Fractions: []float64{0.02, 0.05, 0.10},
				Trials:    6,
				Seed:      3,
			}
			trials := float64(len(o.Fractions) * o.Trials)
			return &Instance{Run: func() (float64, error) {
				if _, err := fault.Sweep(g, o); err != nil {
					return 0, err
				}
				return trials, nil
			}}, nil
		},
	})
}

func registerCkpt() {
	const n, r = 1024, 24
	const kind = "orp.perf.graph"
	// One snapshot runs in tens of microseconds, far below the GC cycle
	// period, so single-op reps measure 2-3x apart depending on whether a
	// collection happens to land inside them. Batching 32 round trips per
	// rep stretches each rep across several GC cycles, which evens the
	// collector's share out and makes the medians reproducible.
	const batch = 32
	suffix := fmt.Sprintf("n=%d,r=%d", n, r)
	Register(Workload{
		Name:   "ckpt/encode/" + suffix,
		Family: "ckpt",
		Doc:    "graph state snapshot: order-preserving marshal + sealed envelope (x32 per rep)",
		Unit:   "bytes",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			return &Instance{Run: func() (float64, error) {
				var total float64
				for i := 0; i < batch; i++ {
					sealed := ckpt.Seal(kind, g.MarshalState())
					total += float64(len(sealed))
				}
				return total, nil
			}}, nil
		},
	})
	Register(Workload{
		Name:   "ckpt/decode/" + suffix,
		Family: "ckpt",
		Doc:    "graph state snapshot: envelope verify + order-preserving unmarshal (x32 per rep)",
		Unit:   "bytes",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(n, r)
			if err != nil {
				return nil, err
			}
			sealed := ckpt.Seal(kind, g.MarshalState())
			bytes := float64(len(sealed))
			return &Instance{Run: func() (float64, error) {
				var total float64
				for i := 0; i < batch; i++ {
					k, payload, err := ckpt.Open(sealed)
					if err != nil {
						return 0, err
					}
					if k != kind {
						return 0, fmt.Errorf("ckpt: kind %q", k)
					}
					if _, err := hsgraph.UnmarshalState(payload); err != nil {
						return 0, err
					}
					total += bytes
				}
				return total, nil
			}}, nil
		},
	})
}

// registerEvalOrbit pits the orbit-quotient evaluator against the plain
// bit-parallel sweep on the same 4-symmetric graph at n=4096. Both run a
// single worker, so the throughput ratio is the quotient speedup itself:
// the orbit evaluator sweeps one source per orbit (m/g of them) and
// scales the aggregates by g for bit-identical totals.
func registerEvalOrbit() {
	const n, m, r, sym = 4096, 1024, 12, 4
	pairs := float64(n) * float64(n-1) / 2
	suffix := fmt.Sprintf("n=%d,g=%d", n, sym)
	Register(Workload{
		Name:   "eval/orbit/" + suffix,
		Family: "eval",
		Doc:    "h-ASPL of a symmetric graph via one sweep per source orbit",
		Unit:   "pairs",
		Setup: func(Config) (*Instance, error) {
			g, err := topo.RandomSymmetric(n, m, r, sym, 1)
			if err != nil {
				return nil, err
			}
			want := g.Evaluate().TotalPath
			oe := hsgraph.NewOrbitEvaluator(1, sym)
			return &Instance{
				Run: func() (float64, error) {
					met, err := oe.Evaluate(g)
					if err != nil {
						return 0, err
					}
					if met.TotalPath != want {
						return 0, fmt.Errorf("orbit evaluation diverged: %d vs %d", met.TotalPath, want)
					}
					return pairs, nil
				},
				Close: oe.Close,
			}, nil
		},
	})
	Register(Workload{
		Name:   "eval/orbit-generic/" + suffix,
		Family: "eval",
		Doc:    "generic single-worker sweep of the eval/orbit graph (the comparator)",
		Unit:   "pairs",
		Setup: func(Config) (*Instance, error) {
			g, err := topo.RandomSymmetric(n, m, r, sym, 1)
			if err != nil {
				return nil, err
			}
			want := g.Evaluate().TotalPath
			ev := hsgraph.NewEvaluator(1)
			return &Instance{
				Run: func() (float64, error) {
					if met := ev.Evaluate(g); met.TotalPath != want {
						return 0, fmt.Errorf("generic evaluation diverged: %d vs %d", met.TotalPath, want)
					}
					return pairs, nil
				},
				Close: ev.Close,
			}, nil
		},
	})
}

// registerAnnealSymmetric measures the SA move loop on a 4-symmetric
// n=4096 instance with symmetric move operators on the orbit-quotient
// evaluation mode. Explicit temperatures skip the calibration phase and a
// single worker keeps it a straight single-thread measurement, as in
// registerAnnealExact.
func registerAnnealSymmetric() {
	const n, m, r, iters, sym = 4096, 1024, 12, 600, 4
	Register(Workload{
		Name:   fmt.Sprintf("anneal/symmetric/n=%d,g=%d,iters=%d", n, sym, iters),
		Family: "anneal",
		Doc:    "symmetric SA moves on the orbit-quotient evaluation mode",
		Unit:   "moves",
		Setup: func(Config) (*Instance, error) {
			start, err := topo.RandomSymmetric(n, m, r, sym, 1)
			if err != nil {
				return nil, err
			}
			o := opt.Options{Iterations: iters, Seed: 2, Workers: 1,
				Moves: opt.SwingOnly, Eval: opt.EvalSymmetric, Symmetry: sym,
				InitialTemp: 2000, FinalTemp: 10}
			return &Instance{Run: func() (float64, error) {
				if _, _, err := opt.Anneal(start, o); err != nil {
					return 0, err
				}
				return float64(iters), nil
			}}, nil
		},
	})
}
