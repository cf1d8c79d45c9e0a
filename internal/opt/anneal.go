package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// MoveSet selects which neighbourhood the annealer explores.
type MoveSet int

const (
	// SwapOnly uses only the swap operation (Section 5.1); it preserves
	// host attachments and hence explores regular host-switch graphs when
	// started from one.
	SwapOnly MoveSet = iota
	// SwingOnly uses only the swing operation (Section 5.2).
	SwingOnly
	// TwoNeighborSwing uses the paper's combined operation (Fig. 4),
	// which subsumes both swap and swing. This is the recommended set.
	TwoNeighborSwing
)

func (m MoveSet) String() string {
	switch m {
	case SwapOnly:
		return "swap"
	case SwingOnly:
		return "swing"
	case TwoNeighborSwing:
		return "2-neighbor-swing"
	}
	return fmt.Sprintf("MoveSet(%d)", int(m))
}

// Schedule selects the cooling schedule.
type Schedule int

const (
	// Geometric cools by a constant factor per iteration (default).
	Geometric Schedule = iota
	// Linear cools by a constant decrement per iteration.
	Linear
	// HillClimb accepts only improvements (temperature pinned at ~0);
	// the baseline the SA is meant to beat.
	HillClimb
)

func (s Schedule) String() string {
	switch s {
	case Geometric:
		return "geometric"
	case Linear:
		return "linear"
	case HillClimb:
		return "hillclimb"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// Options configures Anneal. The zero value is usable: sensible defaults
// are filled in for every unset field.
type Options struct {
	// Iterations is the number of proposed moves. Default 20000.
	// Negative values are rejected.
	Iterations int
	// Moves selects the neighbourhood. The zero value is SwapOnly.
	Moves MoveSet
	// Schedule selects the cooling schedule. Default Geometric.
	Schedule Schedule
	// InitialTemp and FinalTemp bound the geometric cooling schedule in
	// units of total path length. If InitialTemp is zero it is calibrated
	// from a sample of move deltas; FinalTemp defaults to InitialTemp/200.
	// Negative or non-finite values are rejected: a negative FinalTemp
	// would slip past the FinalTemp > InitialTemp check and feed math.Pow
	// a negative ratio, silently turning the cooling factor into NaN and
	// the anneal into a hill-climb.
	InitialTemp float64
	FinalTemp   float64
	// Seed drives all randomness. Two runs with equal inputs and seeds
	// produce identical outputs.
	Seed uint64
	// ReportEvery is the sampling interval of Observer and TraceEnergy
	// in iterations (default 1000).
	ReportEvery int
	// Observer, if non-nil, receives an AnnealSample every ReportEvery
	// iterations plus one final sample at the last iteration. The nil
	// path adds no allocations and no timing calls to the hot loop.
	Observer Observer
	// TraceEnergy records the best energy at every ReportEvery interval
	// into Result.EnergyTrace so convergence can be plotted without
	// re-running. Memory stays bounded: once the trace reaches 2048
	// samples it is decimated (every other sample dropped, sampling
	// stride doubled).
	TraceEnergy bool
	// energyTraceMax, set only by tests, lowers the trace cap from 2048
	// so a short run decimates.
	energyTraceMax int
	// restart tags observer samples from ParallelAnneal.
	restart int
	// reference, set only by tests, scores every candidate with
	// EvaluateSlow: the reference anneal that every path must reproduce.
	reference bool
	// Workers is the number of shard workers each h-ASPL evaluation is
	// split over (see hsgraph.Evaluator). Values <= 1 evaluate serially.
	// The result is identical for every worker count; only throughput
	// changes. ParallelAnneal resolves 0 to a share of GOMAXPROCS.
	Workers int
	// Symmetry, when >= 2, restricts the search to graphs closed under
	// the cyclic group action σ(s) = (s + m/Symmetry) mod m: the start
	// graph must verify (see hsgraph.VerifySymmetric) and every move is a
	// symmetric operator applying the base edit plus its images to a
	// whole orbit. Where the annealer scores through the incremental cache
	// (hsgraph.PreferIncremental), the cache then keeps only the orbit
	// representatives' rows, ~Symmetry× fewer. 0 and 1 mean no symmetry;
	// negative values are rejected.
	Symmetry int

	// CheckpointPath, when non-empty, makes the annealer write a
	// crash-safe snapshot of its complete loop state (graphs, energies,
	// temperature, move counters, energy trace, RNG stream) to this file
	// every CheckpointEvery iterations and once at the final iteration.
	// Snapshots are atomic (temp file + fsync + rename, see package
	// ckpt); a reader never observes a partial file. ParallelAnneal
	// treats the path as a base name and gives restart i its own
	// "<path>.r<i>" file.
	CheckpointPath string
	// CheckpointEvery is the snapshot interval in iterations. Default
	// 10000. Negative values are rejected.
	CheckpointEvery int
	// Resume, with a non-empty CheckpointPath, loads the snapshot and
	// continues from it instead of starting fresh; when the file does not
	// exist the run starts from scratch (so kill-and-resume loops are
	// idempotent). The resumed run is bit-identical — best graph, every
	// Result field, the energy trace — to the run that was never
	// interrupted, at every worker count.
	// Stream-defining options stored in the snapshot (iterations, move
	// set, schedule, temperatures, seed, sampling interval, trace
	// settings, symmetry) must match any non-zero values in these
	// Options, or Anneal errors out rather than silently diverging.
	Resume bool
	// Interrupt, if non-nil, is polled once per iteration; when it
	// becomes true the annealer writes a final snapshot (if checkpointing
	// is configured) and returns the best graph so far together with
	// ckpt.ErrInterrupted. The CLIs arm it from SIGINT/SIGTERM via
	// cliutil.Interrupt.
	Interrupt *atomic.Bool
	// Pause, if non-nil, is called where Interrupt would unwind the run.
	// The annealer first ends its anneal.loop span (outcome "paused"),
	// then blocks in Pause until it answers. Span is the parent of the
	// stages that follow: the next anneal.loop, then anneal.final-eval.
	// Resume true continues this run in memory; the caller clears
	// Interrupt before answering so. Resume false stops as without a
	// hook: a snapshot if CheckpointPath is set, then
	// ckpt.ErrInterrupted. ParallelAnneal calls it once, when every
	// restart still running has reached it. A resumed run is the run
	// that was never paused, bit for bit.
	Pause func() (span *obs.Span, resume bool)
	// Span, if non-nil, is the caller's parent span; the annealer opens
	// children at stage boundaries (anneal.init or anneal.resume-load,
	// anneal.loop with an outcome attribute, anneal.checkpoint per
	// snapshot, anneal.final-eval; ParallelAnneal adds one anneal.restart
	// per restart). A nil span costs nothing: every span method on a nil
	// receiver is a no-op, so the untraced hot path stays allocation-free
	// (see internal/obs).
	Span *obs.Span
}

// Result summarises an annealing run.
type Result struct {
	Best        hsgraph.Metrics // metrics of the returned graph
	Initial     hsgraph.Metrics // metrics of the input graph
	Accepted    int             // number of accepted moves
	Proposed    int             // number of sampled candidate moves
	Iterations  int             // iterations actually run
	FinalTemp   float64
	InitialTemp float64
	// Moves breaks Proposed/Accepted down by operation.
	Moves MoveCounters
	// EnergyTrace is the best energy sampled every EnergyTraceStride
	// iterations (only with Options.TraceEnergy; at most 2048 samples).
	EnergyTrace       []float64
	EnergyTraceStride int
	// Eval snapshots the incremental cache's counters at the end of the
	// run (all zero on the exact path, and reset by a resume — see
	// telemetry; they include the temperature calibration's peeks).
	// Excluded from JSON: the counters are in-process diagnostics, not
	// part of the run's deterministic result (a resumed run re-attaches
	// the cache and counts differently), so serializing them would break
	// the bit-identical resume contract that result payloads carry.
	Eval EvalStats `json:"-"`
}

// annealState is the complete loop state of a running anneal — everything
// a snapshot must capture for a resumed run to be bit-identical to an
// uninterrupted one. iter is the number of completed iterations; temp has
// already been advanced past iteration iter-1.
type annealState struct {
	g, best            *hsgraph.Graph
	energy, bestEnergy int64
	temp               float64
	iter               int
	rnd                *rng.Rand
	res                Result
	tel                telemetry
}

// validateOptions rejects senseless inputs. It deliberately fills no
// defaults: zero values still mean "unset" when a resume fingerprints the
// snapshot against the caller's options (see applyDefaults).
func validateOptions(o *Options) error {
	if o.Iterations < 0 {
		return fmt.Errorf("opt: negative Iterations %d", o.Iterations)
	}
	for _, t := range []struct {
		name string
		v    float64
	}{{"InitialTemp", o.InitialTemp}, {"FinalTemp", o.FinalTemp}} {
		if t.v < 0 || math.IsNaN(t.v) || math.IsInf(t.v, 0) {
			return fmt.Errorf("opt: %s %v must be a finite value >= 0 (0 = default)", t.name, t.v)
		}
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("opt: negative CheckpointEvery %d", o.CheckpointEvery)
	}
	switch o.Moves {
	case SwapOnly, SwingOnly, TwoNeighborSwing:
	default:
		return fmt.Errorf("opt: unknown move set %v", o.Moves)
	}
	switch o.Schedule {
	case Geometric, Linear, HillClimb:
	default:
		return fmt.Errorf("opt: unknown schedule %v", o.Schedule)
	}
	if o.Symmetry < 0 {
		return fmt.Errorf("opt: negative Symmetry %d", o.Symmetry)
	}
	return nil
}

// applyDefaults resolves the unset fields that a fresh run needs (a
// resumed run takes them from the snapshot instead).
func applyDefaults(o *Options) {
	if o.Iterations == 0 {
		o.Iterations = 20000
	}
	if o.ReportEvery <= 0 {
		o.ReportEvery = 1000
	}
}

// Anneal runs simulated annealing from the given starting graph and
// returns the best graph found. The input graph is not modified.
//
// With Options.Resume and an existing CheckpointPath, the run continues
// from the snapshot instead; see the Resume field for the determinism
// contract.
func Anneal(start *hsgraph.Graph, o Options) (*hsgraph.Graph, Result, error) {
	if start == nil {
		return nil, Result{}, fmt.Errorf("opt: nil start graph")
	}
	if err := start.Validate(); err != nil {
		return nil, Result{}, fmt.Errorf("opt: invalid start graph: %w", err)
	}
	if err := validateOptions(&o); err != nil {
		return nil, Result{}, err
	}
	if o.Symmetry > 1 {
		if err := hsgraph.VerifySymmetric(start, o.Symmetry); err != nil {
			return nil, Result{}, fmt.Errorf("opt: Symmetry=%d start graph: %w", o.Symmetry, err)
		}
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 10000
	}
	ev := hsgraph.NewEvaluator(o.Workers)
	defer ev.Close()

	if o.Resume && o.CheckpointPath != "" {
		if _, err := os.Stat(o.CheckpointPath); err == nil {
			sp := o.Span.Child("anneal.resume-load")
			st, err := loadAnnealState(o.CheckpointPath, &o, ev)
			if err != nil {
				sp.Fail(err)
				return nil, Result{}, err
			}
			sp.SetF("iter", float64(st.iter))
			sp.End()
			return runAnneal(st, o, newScorer(ev, st.g.Switches(), o.Symmetry, o.reference))
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, Result{}, fmt.Errorf("opt: resume: %w", err)
		}
	}

	applyDefaults(&o)
	// One scorer serves the temperature calibration and the loop, so a
	// cache's rows are allocated once.
	sc := newScorer(ev, start.Switches(), o.Symmetry, o.reference)
	sp := o.Span.Child("anneal.init")
	st, err := newAnnealState(start, &o, sc)
	if err != nil {
		sp.Fail(err)
		return nil, Result{}, err
	}
	sp.End()
	return runAnneal(st, o, sc)
}

// newAnnealState builds the iteration-zero state: evaluates the start
// graph, calibrates the temperature bounds, and seeds the RNG. It mutates
// o, resolving InitialTemp/FinalTemp to their effective values. sc is the
// run's scorer.
func newAnnealState(start *hsgraph.Graph, o *Options, sc *scorer) (*annealState, error) {
	st := &annealState{rnd: rng.New(o.Seed)}
	st.g = start.Clone()
	cur := sc.ev.Evaluate(st.g)
	if !cur.Connected {
		return nil, hsgraph.ErrNotConnected
	}
	st.res = Result{Initial: cur}
	st.energy = cur.TotalPath
	st.best = st.g.Clone()
	st.bestEnergy = st.energy

	if o.Schedule == HillClimb {
		o.InitialTemp, o.FinalTemp = hillClimbTemp, hillClimbTemp
	}
	if o.InitialTemp == 0 {
		o.InitialTemp = calibrateTemp(st.g, o.Moves, max(o.Symmetry, 1), st.rnd.Split(), sc)
	}
	if o.FinalTemp == 0 {
		o.FinalTemp = o.InitialTemp / 200
	}
	if o.FinalTemp > o.InitialTemp {
		return nil, fmt.Errorf("opt: FinalTemp %v exceeds InitialTemp %v", o.FinalTemp, o.InitialTemp)
	}
	st.res.InitialTemp, st.res.FinalTemp = o.InitialTemp, o.FinalTemp
	st.temp = o.InitialTemp
	st.tel.init(*o)
	return st, nil
}

// runAnneal drives the annealing loop from st (iteration st.iter) to
// o.Iterations. o must be fully resolved (validateOptions applied, temps
// concrete); sc is the run's scorer.
func runAnneal(st *annealState, o Options, sc *scorer) (*hsgraph.Graph, Result, error) {
	res := &st.res
	cool := math.Pow(o.FinalTemp/o.InitialTemp, 1/math.Max(1, float64(o.Iterations-1)))
	linStep := (o.InitialTemp - o.FinalTemp) / math.Max(1, float64(o.Iterations-1))

	st.tel.inc = sc.inc

	// The loop span brackets the iteration range this call actually runs
	// (a resumed run starts past zero); checkpoint writes open children so
	// a trace shows where durability time went.
	loop := o.Span.Child("anneal.loop")
	loop.SetF("start-iter", float64(st.iter))
	// decide judges the current (mutated) graph against st.energy at
	// st.temp. Every path computes the same integer energy and consumes
	// st.rnd identically (one draw per connected uphill candidate), so
	// the accepted-move sequence is seed-determined, not path-determined.
	decide := func() (int64, bool) {
		e, connected := sc.peek(st.g)
		if !connected {
			e = math.MaxInt64
		}
		accepted := acceptExact(e, st.energy, st.temp, st.rnd)
		if accepted {
			sc.commit(st.g)
		}
		return e, accepted
	}

	// The loop owns the move records: the 2-neighbor swing needs its
	// step-1 and step-3 records, the single-step sets only mv[0].
	var mv [2]move
	sym := max(o.Symmetry, 1)
	attempts, accepts := &res.Moves.SwingAttempts, &res.Moves.SwingAccepts
	if o.Moves == SwapOnly {
		attempts, accepts = &res.Moves.SwapAttempts, &res.Moves.SwapAccepts
	}
	for iter := st.iter; iter < o.Iterations; iter++ {
		if o.Moves == TwoNeighborSwing {
			res.Proposed++
			if e, moved := twoNeighborSwing(st.g, sym, st.rnd, decide, &res.Moves, &mv); moved {
				st.energy = e
				res.Accepted++
			}
		} else if propose(st.g, o.Moves, sym, st.rnd, &mv[0]) {
			res.Proposed++
			*attempts++
			if e, accepted := decide(); accepted {
				st.energy = e
				res.Accepted++
				*accepts++
			} else {
				mv[0].undo(st.g)
			}
		}
		if st.energy < st.bestEnergy {
			st.bestEnergy = st.energy
			st.best.CopyFrom(st.g)
		}
		if (iter+1)%o.ReportEvery == 0 || iter+1 == o.Iterations {
			st.tel.sample(&o, res, iter+1, st.temp, st.energy, st.bestEnergy)
		}
		switch o.Schedule {
		case Linear:
			st.temp -= linStep
			if st.temp < o.FinalTemp {
				st.temp = o.FinalTemp
			}
		case HillClimb:
			// temperature pinned
		default:
			st.temp *= cool
		}
		st.iter = iter + 1

		// Durability points, off the boundary-free hot path: a periodic
		// snapshot, the final snapshot, and an interrupt-triggered one
		// unless the pause hook continues the run in memory.
		interrupted := o.Interrupt != nil && o.Interrupt.Load() && st.iter < o.Iterations
		if interrupted && o.Pause != nil {
			loop.SetF("iter", float64(st.iter))
			loop.SetS("outcome", "paused")
			loop.End()
			var resume bool
			o.Span, resume = o.Pause()
			loop = o.Span.Child("anneal.loop")
			loop.SetF("start-iter", float64(st.iter))
			interrupted = !resume
		}
		if o.CheckpointPath != "" &&
			(st.iter%o.CheckpointEvery == 0 || st.iter == o.Iterations || interrupted) {
			csp := loop.Child("anneal.checkpoint")
			csp.SetF("iter", float64(st.iter))
			if err := writeAnnealCheckpoint(o.CheckpointPath, st, &o); err != nil {
				csp.Fail(err)
				loop.Fail(err)
				return nil, Result{}, err
			}
			csp.End()
		}
		if interrupted {
			res.Iterations = st.iter
			res.Eval = evalStats(sc.inc)
			loop.SetF("iter", float64(st.iter))
			loop.SetS("outcome", "interrupted")
			loop.End()
			res.Best = sc.ev.Evaluate(st.best)
			return st.best, *res, ckpt.ErrInterrupted
		}
	}
	res.Iterations = o.Iterations
	res.Eval = evalStats(sc.inc)
	st.tel.finish(&o, res)
	loop.SetF("iter", float64(st.iter))
	loop.SetS("outcome", "done")
	loop.End()
	fsp := o.Span.Child("anneal.final-eval")
	res.Best = sc.ev.Evaluate(st.best)
	fsp.End()
	return st.best, *res, nil
}

// telemetry drives Observer sampling and energy tracing. It is fully
// inert — no clock reads, no appends, no allocations — unless the run
// requested an observer or an energy trace. buf, stride and interval are
// part of the checkpointed loop state; the wall-clock fields are not
// (resumed runs restart the rate clock, which only affects observer
// samples, never the Result).
type telemetry struct {
	observe  bool
	trace    bool
	max      int
	start    time.Time
	lastTime time.Time
	lastIter int
	stride   int // energy-trace decimation stride, in ReportEvery units
	interval int // aligned intervals seen so far
	buf      []float64
	// inc, when the run scores through the incremental cache, lets
	// samples carry its counters (EvalStats). Not part of the checkpointed
	// state: a resumed run restarts the counters, which only affects
	// observer samples, never the Result.
	inc *hsgraph.IncrementalEvaluator
}

func (t *telemetry) init(o Options) {
	t.observe = o.Observer != nil
	t.trace = o.TraceEnergy
	t.max = o.energyTraceMax
	if t.max <= 0 {
		t.max = 2048
	}
	if t.max < 2 {
		t.max = 2
	}
	if t.stride == 0 {
		t.stride = 1
	}
	if t.observe {
		t.start = time.Now()
		t.lastTime = t.start
	}
}

// sample records one telemetry interval. iter is the number of completed
// iterations; the caller invokes it on ReportEvery boundaries and once at
// the final iteration.
func (t *telemetry) sample(o *Options, res *Result, iter int, temp float64, current, best int64) {
	if t.trace && iter%o.ReportEvery == 0 {
		if t.interval%t.stride == 0 {
			t.buf = append(t.buf, float64(best))
			if len(t.buf) >= t.max {
				// Decimate: keep every other sample, double the stride.
				half := (len(t.buf) + 1) / 2
				for i := 0; i < half; i++ {
					t.buf[i] = t.buf[2*i]
				}
				t.buf = t.buf[:half]
				t.stride *= 2
			}
		}
		t.interval++
	}
	if t.observe {
		now := time.Now()
		rate := 0.0
		if dt := now.Sub(t.lastTime).Seconds(); dt > 0 {
			rate = float64(iter-t.lastIter) / dt
		}
		o.Observer.ObserveAnneal(AnnealSample{
			Restart:     o.restart,
			Iter:        iter,
			Iterations:  o.Iterations,
			Temp:        temp,
			Current:     current,
			Best:        best,
			Accepted:    res.Accepted,
			Proposed:    res.Proposed,
			Moves:       res.Moves,
			MovesPerSec: rate,
			Elapsed:     now.Sub(t.start).Seconds(),
			Eval:        evalStats(t.inc),
		})
		t.lastTime, t.lastIter = now, iter
	}
}

func (t *telemetry) finish(o *Options, res *Result) {
	if t.trace {
		res.EnergyTrace = t.buf
		res.EnergyTraceStride = t.stride * o.ReportEvery
	}
}

// hillClimbTemp is effectively zero on the integer energy scale: any
// uphill move has acceptance probability exp(-1/1e-9) == 0.
const hillClimbTemp = 1e-9

// calibrateTemp estimates a starting temperature as the mean |delta| of a
// sample of random moves, the classic rule of thumb that yields a high
// initial acceptance rate. Works on a scratch clone, scored by the run's
// own scorer: on the cache path the first peek attaches the cache to the
// clone, and every sample's rollback is free. Every path gives the same
// integers, so the temperature does not depend on the path. Symmetric
// runs (orbit size sym >= 2; 1 means none) sample orbit moves: their
// deltas are ~sym× a single-image move's, and the temperature must match
// the scale of the moves the loop will actually propose. The 2-neighbor
// swing set samples its step-1 swing.
func calibrateTemp(g *hsgraph.Graph, moves MoveSet, sym int, rnd *rng.Rand, sc *scorer) float64 {
	scratch := g.Clone()
	base, _ := sc.peek(scratch)
	var sum float64
	count := 0
	var mv move
	for i := 0; i < 40; i++ {
		if !propose(scratch, moves, sym, rnd, &mv) {
			continue
		}
		if e, connected := sc.peek(scratch); connected {
			sum += math.Abs(float64(e - base))
			count++
		}
		mv.undo(scratch)
	}
	if count == 0 || sum == 0 {
		// Fall back to a small fraction of the energy scale.
		return math.Max(1, float64(base)*1e-4)
	}
	return sum / float64(count)
}

// ParallelAnneal runs restarts independent annealing runs with distinct
// seeds on separate goroutines and returns the best result. Determinism is
// preserved: the winner depends only on (start, o, restarts).
//
// When o.Workers is zero the available cores are split between the two
// levels of parallelism: each restart gets GOMAXPROCS/restarts evaluation
// shard workers (at least one), so a 2-restart run on 8 cores uses 2x4
// goroutines instead of leaving 6 cores idle.
//
// With checkpointing configured, restart i snapshots into
// RestartCheckpointPath(o.CheckpointPath, restarts, i); Resume picks up
// whichever restarts left snapshots behind and starts the rest fresh. If
// o.Interrupt fires, every restart persists its state and ParallelAnneal
// returns ckpt.ErrInterrupted. With o.Pause set, the restarts that reach
// the interrupt wait for each other instead, and o.Pause is called once
// every restart still running waits (see pauseBarrier); each resumes
// under its own anneal.restart span below the span Pause returns.
func ParallelAnneal(start *hsgraph.Graph, o Options, restarts int) (*hsgraph.Graph, Result, error) {
	if restarts < 1 {
		restarts = 1
	}
	if o.Workers == 0 {
		if w := runtime.GOMAXPROCS(0) / restarts; w > 1 {
			o.Workers = w
		} else {
			o.Workers = 1
		}
	}
	type outcome struct {
		g   *hsgraph.Graph
		res Result
		err error
	}
	outs := make([]outcome, restarts)
	done := make(chan int)
	var bar *pauseBarrier
	if o.Pause != nil {
		bar = newPauseBarrier(o.Pause, restarts)
	}
	for i := 0; i < restarts; i++ {
		go func(i int) {
			// Stage-label the restart goroutine (and, by inheritance,
			// everything it spawns except the evaluator pool, which
			// re-labels itself stage=eval) for per-stage CPU profiles.
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
				pprof.Labels("stage", "anneal", "worker", strconv.Itoa(i))))
			oi := o
			oi.Seed = o.Seed + uint64(i)*0x9e3779b97f4a7c15
			// The Observer (if any) is shared by every restart; samples
			// carry the restart index. Observer implementations used here
			// must be safe for concurrent use (see Observer docs).
			oi.restart = i
			if o.CheckpointPath != "" {
				oi.CheckpointPath = RestartCheckpointPath(o.CheckpointPath, restarts, i)
			}
			// Each restart traces under its own span; the emit function of
			// the tracer behind o.Span must be concurrency-safe (it is for
			// every tracer this repo builds).
			rsp := o.Span.Child("anneal.restart")
			rsp.SetF("restart", float64(i))
			oi.Span = rsp
			if bar != nil {
				oi.Pause = func() (*obs.Span, bool) {
					rsp.SetS("outcome", "paused")
					rsp.End()
					sp, resume := bar.wait()
					rsp = sp.Child("anneal.restart")
					rsp.SetF("restart", float64(i))
					return rsp, resume
				}
			}
			g, res, err := Anneal(start, oi)
			bar.leave()
			switch {
			case errors.Is(err, ckpt.ErrInterrupted):
				rsp.SetS("outcome", "interrupted")
				rsp.End()
			case err != nil:
				rsp.Fail(err)
			default:
				rsp.SetS("outcome", "done")
				rsp.End()
			}
			outs[i] = outcome{g, res, err}
			done <- i
		}(i)
	}
	for i := 0; i < restarts; i++ {
		<-done
	}
	interrupted := false
	for _, out := range outs {
		if out.err != nil && !errors.Is(out.err, ckpt.ErrInterrupted) {
			return nil, Result{}, out.err
		}
		interrupted = interrupted || out.err != nil
	}
	if interrupted {
		return nil, Result{}, ckpt.ErrInterrupted
	}
	bestIdx := -1
	for i, out := range outs {
		if bestIdx == -1 || out.res.Best.TotalPath < outs[bestIdx].res.Best.TotalPath {
			bestIdx = i
		}
	}
	return outs[bestIdx].g, outs[bestIdx].res, nil
}

// pauseBarrier turns ParallelAnneal's per-restart pause calls into one
// call of the caller's hook: a restart that reaches its interrupt waits
// until every restart still running has reached it too (a restart that
// finishes meanwhile leaves), and the last to arrive calls the hook and
// hands its answer to all. A nil barrier (no hook) is inert.
type pauseBarrier struct {
	pause func() (*obs.Span, bool)

	mu            sync.Mutex
	cond          sync.Cond
	live, waiting int
	gen           int // trips so far; a waiter leaves when it changes
	span          *obs.Span
	resume        bool
}

func newPauseBarrier(pause func() (*obs.Span, bool), live int) *pauseBarrier {
	b := &pauseBarrier{pause: pause, live: live}
	b.cond.L = &b.mu
	return b
}

// wait blocks a paused restart until the barrier trips and returns the
// hook's answer.
func (b *pauseBarrier) wait() (*obs.Span, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.live {
		b.tripLocked()
	} else {
		for gen := b.gen; gen == b.gen; {
			b.cond.Wait()
		}
	}
	return b.span, b.resume
}

// leave retires a restart that returned; if every other live restart
// already waits, the leaver trips the barrier for them.
func (b *pauseBarrier) leave() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	if b.waiting > 0 && b.waiting == b.live {
		b.tripLocked()
	}
}

// tripLocked calls the hook without holding b.mu (every live restart
// waits, so none can arrive or leave meanwhile) and wakes the waiters.
func (b *pauseBarrier) tripLocked() {
	b.mu.Unlock()
	sp, resume := b.pause()
	b.mu.Lock()
	b.span, b.resume = sp, resume
	b.waiting = 0
	b.gen++
	b.cond.Broadcast()
}

// RestartCheckpointPath is the snapshot file of restart i in a
// ParallelAnneal over the given base path. Single-restart runs use the
// base path itself, so plain Anneal and 1-restart ParallelAnneal share
// snapshots.
func RestartCheckpointPath(base string, restarts, i int) string {
	if restarts == 1 {
		return base
	}
	return fmt.Sprintf("%s.r%d", base, i)
}
