// Package core is the top-level API of this repository: it solves the
// order/radix problem (ORP) end to end the way Section 5.3 of the paper
// prescribes. Given order n and radix r it
//
//  1. returns the trivial single-switch graph when n <= r,
//  2. returns the Appendix's provably optimal clique construction when
//     n <= m(r-m+1) for some m, and otherwise
//  3. predicts the optimal switch count m_opt as the minimiser of the
//     continuous Moore bound and runs simulated annealing with the
//     2-neighbor swing operation from a random saturated start.
//
// The result is the paper's "proposed topology" for (n, r).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/bounds"
	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/topo"
)

// Method records which of the three regimes produced a topology.
type Method int

const (
	// SingleSwitch: n <= r, all hosts on one switch (h-ASPL exactly 2).
	SingleSwitch Method = iota
	// CliqueOptimal: the Appendix construction, provably optimal.
	CliqueOptimal
	// Annealed: m_opt prediction + simulated annealing (the general case).
	Annealed
)

func (m Method) String() string {
	switch m {
	case SingleSwitch:
		return "single-switch"
	case CliqueOptimal:
		return "clique"
	case Annealed:
		return "annealed"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures Solve. The zero value uses the defaults documented
// on each field.
type Options struct {
	// Iterations per annealing run. Default 50000.
	Iterations int
	// Restarts is the number of independent annealing runs (the best
	// wins). Default 1.
	Restarts int
	// Seed drives all randomness; equal seeds give equal topologies.
	Seed uint64
	// FixedM forces the switch count instead of the m_opt prediction.
	// Zero means predict. Used by the Fig. 5 sweeps.
	FixedM int
	// Moves selects the SA neighbourhood. The zero value is
	// opt.SwapOnly.
	Moves opt.MoveSet
	// Workers is the number of evaluation shard workers per annealing run
	// (hsgraph.Evaluator). Zero means auto: single-restart runs use
	// GOMAXPROCS, multi-restart runs let opt.ParallelAnneal split the
	// cores between restarts and shards. Results are worker-invariant.
	Workers int
	// Eval is ignored: the annealer picks its evaluator from the graph's
	// size, and every path gives the same result (see opt.EvalMode).
	//
	// Deprecated: Eval selects nothing.
	Eval opt.EvalMode
	// Symmetry, when >= 2, makes the annealed regime search only graphs
	// closed under a cyclic group action of order Symmetry: the start is
	// a symmetric random graph (topo.RandomSymmetric) and every move is a
	// symmetry-preserving operator. Unless FixedM pins it, the predicted
	// switch count is adjusted to the nearest value compatible with the
	// group action. Where the annealer scores through the incremental
	// cache, the cache then keeps only orbit-representative rows
	// (~Symmetry× fewer). The single-switch and clique regimes are already
	// provably optimal and ignore this field.
	Symmetry int
	// Observer receives per-interval anneal telemetry (every 1000
	// iterations; see opt.Observer). With Restarts > 1 every restart
	// samples into it, tagged by AnnealSample.Restart, so implementations
	// must be concurrency-safe.
	Observer opt.Observer
	// TraceEnergy records a bounded best-energy convergence trace into
	// Topology.Anneal.EnergyTrace (see opt.Options.TraceEnergy).
	TraceEnergy bool
	// CheckpointPath enables crash-safe snapshots of the annealing run
	// (see opt.Options.CheckpointPath). Multi-restart runs write one file
	// per restart via opt.RestartCheckpointPath. The single-switch and
	// clique regimes finish instantly and never checkpoint.
	CheckpointPath string
	// CheckpointEvery is the snapshot interval in iterations (0 = the
	// annealer's default).
	CheckpointEvery int
	// Resume continues from the CheckpointPath snapshot when one exists.
	// The remaining options must match the checkpointed run (zero values
	// adopt the stored ones); the resumed result is bit-identical to an
	// uninterrupted run.
	Resume bool
	// Interrupt, if non-nil, is polled by the annealer; arming it makes
	// Solve persist a final snapshot and return ckpt.ErrInterrupted
	// (alongside the partial best topology when one is available).
	Interrupt *atomic.Bool
	// Pause is forwarded to the annealer: where Interrupt would unwind
	// the run, it blocks in Pause and then continues in memory or stops
	// (see opt.Options.Pause).
	Pause func() (span *obs.Span, resume bool)
	// Span is the parent for the annealer's stage spans (see
	// opt.Options.Span). The single-switch and clique regimes finish in
	// microseconds and open no stages. Nil disables tracing for free.
	Span *obs.Span
}

// Topology is a solved ORP instance.
type Topology struct {
	Graph   *hsgraph.Graph
	Method  Method
	Metrics hsgraph.Metrics
	// MPredicted is the continuous-Moore-bound m_opt for (n, r); MUsed is
	// the switch count actually used (differs only under Options.FixedM
	// or in the clique/single-switch regimes).
	MPredicted int
	MUsed      int
	// LowerBound is Theorem 2's h-ASPL lower bound; ContinuousMoore is
	// the continuous Moore bound at MUsed.
	LowerBound      float64
	ContinuousMoore float64
	// Anneal holds SA statistics when Method == Annealed.
	Anneal opt.Result
}

// Solve produces the proposed topology for order n and radix r.
func Solve(n, r int, o Options) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: order %d < 1", n)
	}
	if r < 3 {
		return nil, fmt.Errorf("core: radix %d < 3", r)
	}
	if o.Iterations == 0 {
		o.Iterations = 50000
	}
	if o.Restarts < 1 {
		o.Restarts = 1
	}

	mOpt, _ := bounds.OptimalSwitchCount(n, r, 0)
	top := &Topology{
		MPredicted: mOpt,
		LowerBound: bounds.HASPLLowerBound(n, r),
	}

	if o.FixedM == 0 {
		// Regime 1: one switch suffices.
		if n <= r {
			g := hsgraph.New(n, 1, r)
			for h := 0; h < n; h++ {
				if err := g.AttachHost(h, 0); err != nil {
					return nil, err
				}
			}
			top.Graph, top.Method = g, SingleSwitch
			return finish(top, n, r)
		}
		// Regime 2: clique construction is feasible and optimal (Thm 3).
		if m := bounds.MinCliqueSwitches(n, r); m > 0 {
			g, err := opt.Clique(n, r)
			if err != nil {
				return nil, err
			}
			top.Graph, top.Method = g, CliqueOptimal
			return finish(top, n, r)
		}
	}

	// Regime 3: predict m, anneal.
	m := o.FixedM
	if m == 0 {
		m = mOpt
		if o.Symmetry > 1 {
			var err error
			if m, err = adjustSymmetricM(n, mOpt, r, o.Symmetry); err != nil {
				return nil, err
			}
		}
	}
	if !hsgraph.Feasible(n, m, r) {
		return nil, fmt.Errorf("core: no host-switch graph with n=%d m=%d r=%d exists", n, m, r)
	}
	var start *hsgraph.Graph
	var err error
	if o.Symmetry > 1 {
		start, err = topo.RandomSymmetric(n, m, r, o.Symmetry, o.Seed)
	} else {
		start, err = hsgraph.RandomConnected(n, m, r, rng.New(o.Seed))
	}
	if err != nil {
		return nil, err
	}
	ao := opt.Options{
		Iterations:      o.Iterations,
		Moves:           o.Moves,
		Seed:            o.Seed + 1,
		Workers:         o.Workers,
		Symmetry:        o.Symmetry,
		Observer:        o.Observer,
		TraceEnergy:     o.TraceEnergy,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		Resume:          o.Resume,
		Interrupt:       o.Interrupt,
		Pause:           o.Pause,
		Span:            o.Span,
	}
	if ao.Workers == 0 && o.Restarts == 1 {
		ao.Workers = runtime.GOMAXPROCS(0)
	}
	var g *hsgraph.Graph
	var res opt.Result
	if o.Restarts > 1 {
		g, res, err = opt.ParallelAnneal(start, ao, o.Restarts)
	} else {
		g, res, err = opt.Anneal(start, ao)
	}
	if err != nil {
		// An interrupted single-restart anneal still hands back its
		// best-so-far graph; surface it as a partial topology so the CLI
		// can report progress alongside ckpt.ErrInterrupted.
		if errors.Is(err, ckpt.ErrInterrupted) && g != nil {
			top.Graph, top.Method, top.Anneal = g, Annealed, res
			if t, ferr := finish(top, n, r); ferr == nil {
				return t, err
			}
		}
		return nil, err
	}
	top.Graph, top.Method, top.Anneal = g, Annealed, res
	return finish(top, n, r)
}

// adjustSymmetricM finds the switch count nearest the Moore-bound
// prediction mOpt that admits an order-sym symmetric layout: a multiple
// of sym (>= 3) whose host remainder n mod m is also a multiple of sym
// (host counts must be constant on every orbit) and that stays feasible
// for (n, r). Ties at equal distance prefer the smaller count, where the
// continuous Moore bound is flat anyway.
func adjustSymmetricM(n, mOpt, r, sym int) (int, error) {
	ok := func(m int) bool {
		return m >= 3 && m >= sym && m%sym == 0 && (n%m)%sym == 0 && hsgraph.Feasible(n, m, r)
	}
	for d := 0; d <= mOpt+4*sym; d++ {
		if m := mOpt - d; m > 0 && ok(m) {
			return m, nil
		}
		if ok(mOpt + d) {
			return mOpt + d, nil
		}
	}
	return 0, fmt.Errorf("core: no switch count near m_opt=%d supports symmetry %d for n=%d r=%d", mOpt, sym, n, r)
}

// finish fills the topology's metrics and bounds and validates it. The
// annealed regime reuses the annealer's evaluation of its returned graph
// (opt.Result.Best); the instant regimes evaluate theirs here.
func finish(top *Topology, n, r int) (*Topology, error) {
	top.MUsed = top.Graph.Switches()
	if top.Method == Annealed {
		top.Metrics = top.Anneal.Best
	} else {
		top.Metrics = top.Graph.Evaluate()
	}
	top.ContinuousMoore = bounds.ContinuousMooreHASPL(n, top.MUsed, r)
	if !top.Metrics.Connected {
		return nil, hsgraph.ErrNotConnected
	}
	if err := top.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("core: produced invalid topology: %w", err)
	}
	return top, nil
}
