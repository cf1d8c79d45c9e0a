package fault

import (
	"context"
	"errors"
	"fmt"
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
	"repro/internal/stats"
)

// SweepOptions configures a Monte-Carlo resilience sweep.
type SweepOptions struct {
	Model     Model
	Fractions []float64 // failure fractions to probe, e.g. 0, 0.05, ..., 0.20
	Trials    int       // independent scenarios per fraction (default 20)
	Seed      uint64    // base seed; every (fraction, trial) seed derives from it
	Workers   int       // total goroutine budget (0 = GOMAXPROCS), split between trials and evaluator shards

	Confidence float64 // bootstrap CI level (default 0.95)
	Resamples  int     // bootstrap resamples (default 1000)

	// OnTrial, when non-nil, is called after every completed trial with
	// cumulative progress. Calls are serialized but may come from any
	// worker goroutine and in any trial order; keep the callback fast — it
	// sits on the sweep's critical path. Progress reporting never changes
	// the sweep's numbers, only its wall-clock.
	OnTrial func(p TrialProgress)
	// Metrics, when non-nil, receives live per-trial counters and a
	// wall-clock timing histogram (see SweepMetrics).
	Metrics *SweepMetrics

	// CheckpointPath, when non-empty, maintains a crash-safe ledger of
	// completed trials at this path (atomic replace per flush, see
	// package ckpt). Because every trial is a pure function of the graph
	// and the options, a resumed sweep re-runs only the missing trials
	// and produces []SweepPoint identical to an uninterrupted run.
	CheckpointPath string
	// CheckpointEvery is the ledger flush interval in completed trials.
	// Default 1 (every trial — trials are expensive, flushes are not).
	// Negative values are rejected.
	CheckpointEvery int
	// Resume, with a non-empty CheckpointPath, loads the ledger and skips
	// its completed trials; a missing file starts fresh. The ledger's
	// fingerprint (model, fractions, trials, seed, graph) must match this
	// sweep or Sweep errors out.
	Resume bool
	// Interrupt, if non-nil, is polled between trials; when it becomes
	// true, workers finish their current trial, the ledger is flushed,
	// and Sweep returns ckpt.ErrInterrupted. Nil results accompany the
	// error; the ledger holds every finished trial.
	Interrupt *atomic.Bool
	// Pause, if non-nil, is called where Interrupt would end the sweep,
	// once the trial workers have drained: the sweep first ends its
	// sweep.trials span (outcome "paused"), then blocks in Pause until
	// it answers. Span is the parent of the stages that follow: the next
	// sweep.trials, then sweep.aggregate. Resume true continues the
	// remaining trials in memory; the caller clears Interrupt before
	// answering so. Resume false stops as without a hook: the ledger is
	// flushed and Sweep returns ckpt.ErrInterrupted.
	Pause func() (span *obs.Span, resume bool)
	// Span, if non-nil, is the caller's parent span; the sweep opens
	// stage children (sweep.pristine-eval, sweep.trials with trial
	// counts, sweep.aggregate). Nil costs nothing (see internal/obs).
	Span *obs.Span
}

// TrialProgress is the per-trial report handed to SweepOptions.OnTrial.
type TrialProgress struct {
	FracIndex int     // index into SweepOptions.Fractions
	Fraction  float64 // the fraction being probed
	Trial     int     // trial number within the fraction, 0-based
	Done      int     // trials completed so far, across all fractions
	Total     int     // len(Fractions) * Trials
	Seconds   float64 // wall-clock duration of this trial
	Result    Result  // the trial's measurements
}

// Event encodes the report as one sweep.trial event with the field keys
// obs/schema.go lists. orpfault's trace files and orpd's job streams both
// write it.
func (p TrialProgress) Event() obs.Event {
	return obs.Event{T: p.Seconds, Kind: obs.KindSweepTrial, F: map[string]float64{
		"fraction":       p.Fraction,
		"trial":          float64(p.Trial),
		"done":           float64(p.Done),
		"total":          float64(p.Total),
		"seconds":        p.Seconds,
		"survivingHASPL": p.Result.SurvivingHASPL,
		"stretch":        p.Result.Stretch,
		"reachableFrac":  p.Result.ReachableFrac,
		"failedLinks":    float64(p.Result.FailedLinks),
		"failedSwitches": float64(p.Result.FailedSwitches),
	}}
}

// SweepMetrics publishes live sweep state into an obs.Registry.
type SweepMetrics struct {
	TrialsCompleted *obs.Counter
	Progress        *obs.Gauge // completed fraction of the sweep, 0..1
	// TrialSeconds is the wall-clock duration of individual trials
	// (100µs .. ~50s exponential buckets).
	TrialSeconds *obs.Histogram
}

// NewSweepMetrics registers the fault-sweep instrument set in r.
func NewSweepMetrics(r *obs.Registry) *SweepMetrics {
	return &SweepMetrics{
		TrialsCompleted: r.Counter("fault_trials_completed_total", "Monte-Carlo trials finished."),
		Progress:        r.Gauge("fault_sweep_progress", "Completed fraction of the sweep (0..1)."),
		TrialSeconds:    r.Histogram("fault_trial_seconds", "Wall-clock duration of one trial.", obs.ExpBuckets(1e-4, 2, 20)),
	}
}

// SweepPoint aggregates the trials at one failure fraction.
type SweepPoint struct {
	Fraction float64
	Trials   int

	// SurvivingHASPL is the distribution of per-trial h-ASPL over still-
	// reachable host pairs, with a bootstrap CI for its mean.
	SurvivingHASPL         stats.Summary
	HASPLLo, HASPLHi       float64
	Stretch                stats.Summary // SurvivingHASPL / pristine h-ASPL
	DisconnectedHosts      stats.Summary
	ReachableFrac          stats.Summary
	ConnectedTrials        int // trials where every host pair stayed reachable
	WorstDegradedDiameter  int // max finite diameter seen across trials
	MeanFailedLinks        float64
	MeanFailedSwitches     float64
	MeanDetachedHostsCount float64
}

// TrialSeed returns the deterministic seed of trial t at fraction index
// fi for a sweep with the given base seed. Exposed so CLIs can replay a
// single trial out of a sweep.
func TrialSeed(base uint64, fi, t int) uint64 {
	s := base ^ 0x5851f42d4c957f2d*uint64(fi+1) ^ 0x14057b7ef767814f*uint64(t+1)
	return rng.SplitMix64(&s)
}

// Sweep runs Trials scenarios at every fraction and aggregates degradation
// statistics. Trials are independent and run on a worker pool; each worker
// owns an hsgraph.Evaluator whose shard count is the remaining share of
// the goroutine budget, so small sweeps on large graphs still saturate the
// machine. The output is a pure function of (g, o): scheduling never
// changes the numbers, only the wall-clock.
func Sweep(g *hsgraph.Graph, o SweepOptions) ([]SweepPoint, error) {
	if len(o.Fractions) == 0 {
		return nil, fmt.Errorf("fault: sweep needs at least one fraction")
	}
	if o.Trials <= 0 {
		o.Trials = 20
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Resamples == 0 {
		o.Resamples = 1000
	}
	if o.CheckpointEvery < 0 {
		return nil, fmt.Errorf("fault: negative CheckpointEvery %d", o.CheckpointEvery)
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1
	}
	psp := o.Span.Child("sweep.pristine-eval")
	pristine := g.EvaluateParallel(o.Workers)
	if !pristine.Connected {
		err := fmt.Errorf("fault: pristine graph is disconnected; refusing to sweep")
		psp.Fail(err)
		return nil, err
	}
	psp.End()

	type job struct{ fi, t int }
	jobs := make([]job, 0, len(o.Fractions)*o.Trials)
	for fi := range o.Fractions {
		for t := 0; t < o.Trials; t++ {
			jobs = append(jobs, job{fi, t})
		}
	}

	var ledger *sweepLedger
	if o.CheckpointPath != "" {
		fp := fingerprintSweep(g, &o)
		if o.Resume {
			if _, err := os.Stat(o.CheckpointPath); err == nil {
				ledger, err = loadSweepLedger(o.CheckpointPath, o.CheckpointEvery, fp, len(jobs))
				if err != nil {
					return nil, err
				}
			} else if !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("fault: resume: %w", err)
			}
		}
		if ledger == nil {
			ledger = newSweepLedger(o.CheckpointPath, o.CheckpointEvery, fp, len(jobs))
		}
	}
	trialWorkers := o.Workers
	if trialWorkers > len(jobs) {
		trialWorkers = len(jobs)
	}
	evWorkers := o.Workers / trialWorkers
	if evWorkers < 1 {
		evWorkers = 1
	}

	// With a ledger, its (possibly prefilled) result slots are the
	// working storage, so restored and fresh trials aggregate uniformly.
	results := make([]Result, len(jobs))
	if ledger != nil {
		results = ledger.results
	}
	prefilled := 0
	if ledger != nil {
		for _, d := range ledger.done {
			if d {
				prefilled++
			}
		}
	}
	tsp := o.Span.Child("sweep.trials")
	tsp.SetF("total", float64(len(jobs)))
	tsp.SetF("restored", float64(prefilled))
	tsp.SetF("workers", float64(trialWorkers))
	errs := make([]error, trialWorkers)
	var cursor, doneCount atomic.Int64
	doneCount.Store(int64(prefilled))
	var progressMu sync.Mutex
	reporting := o.OnTrial != nil || o.Metrics != nil
	worker := func(w int) {
		// Stage-label the trial worker so CPU profiles split sweep
		// time from the evaluator shards it drives (stage=eval).
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("stage", "sweep", "worker", strconv.Itoa(w))))
		ev := hsgraph.NewEvaluator(evWorkers)
		defer ev.Close()
		for {
			if o.Interrupt != nil && o.Interrupt.Load() {
				return
			}
			i := int(cursor.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			if ledger != nil && ledger.done[i] {
				continue // restored from the ledger; nothing to redo
			}
			jb := jobs[i]
			var trialStart time.Time
			if reporting {
				trialStart = time.Now()
			}
			sc, err := Sample(g, o.Model, o.Fractions[jb.fi], TrialSeed(o.Seed, jb.fi, jb.t))
			if err != nil {
				errs[w] = err
				return
			}
			d, err := Apply(g, sc)
			if err != nil {
				errs[w] = err
				return
			}
			results[i] = Measure(pristine, d, ev)
			if ledger != nil {
				if err := ledger.record(i, results[i]); err != nil {
					errs[w] = err
					return
				}
			}
			done := int(doneCount.Add(1))
			if reporting {
				secs := time.Since(trialStart).Seconds()
				if m := o.Metrics; m != nil {
					m.TrialsCompleted.Inc()
					m.TrialSeconds.Observe(secs)
					m.Progress.Set(float64(done) / float64(len(jobs)))
				}
				if o.OnTrial != nil {
					progressMu.Lock()
					o.OnTrial(TrialProgress{
						FracIndex: jb.fi,
						Fraction:  o.Fractions[jb.fi],
						Trial:     jb.t,
						Done:      done,
						Total:     len(jobs),
						Seconds:   secs,
						Result:    results[i],
					})
					progressMu.Unlock()
				}
			}
		}
	}
	for {
		var wg sync.WaitGroup
		for w := 0; w < trialWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
		tsp.SetF("done", float64(doneCount.Load()))
		for _, err := range errs {
			if err != nil {
				tsp.Fail(err)
				return nil, err
			}
		}
		if int(doneCount.Load()) == len(jobs) || o.Pause == nil {
			break
		}
		// Interrupted with a pause hook: every claimed trial finished, so
		// the cursor is where the remaining trials start.
		tsp.SetS("outcome", "paused")
		tsp.End()
		var resume bool
		o.Span, resume = o.Pause()
		tsp = o.Span.Child("sweep.trials")
		tsp.SetF("total", float64(len(jobs)))
		tsp.SetF("restored", float64(doneCount.Load()))
		tsp.SetF("workers", float64(trialWorkers))
		if !resume {
			break
		}
	}
	if ledger != nil {
		if err := ledger.flush(); err != nil {
			tsp.Fail(err)
			return nil, err
		}
	}
	if int(doneCount.Load()) < len(jobs) {
		// Only an interrupt leaves trials unfinished without an error.
		tsp.SetS("outcome", "interrupted")
		tsp.End()
		return nil, ckpt.ErrInterrupted
	}
	tsp.SetS("outcome", "done")
	tsp.End()

	asp := o.Span.Child("sweep.aggregate")
	defer asp.End()
	points := make([]SweepPoint, len(o.Fractions))
	for fi, frac := range o.Fractions {
		pt := SweepPoint{Fraction: frac, Trials: o.Trials}
		haspl := make([]float64, 0, o.Trials)
		stretch := make([]float64, 0, o.Trials)
		disc := make([]float64, 0, o.Trials)
		reach := make([]float64, 0, o.Trials)
		for t := 0; t < o.Trials; t++ {
			r := results[fi*o.Trials+t]
			haspl = append(haspl, r.SurvivingHASPL)
			stretch = append(stretch, r.Stretch)
			disc = append(disc, float64(r.DisconnectedHosts))
			reach = append(reach, r.ReachableFrac)
			if r.Degraded.Connected {
				pt.ConnectedTrials++
			}
			if r.Degraded.Diameter > pt.WorstDegradedDiameter {
				pt.WorstDegradedDiameter = r.Degraded.Diameter
			}
			pt.MeanFailedLinks += float64(r.FailedLinks)
			pt.MeanFailedSwitches += float64(r.FailedSwitches)
			pt.MeanDetachedHostsCount += float64(r.DetachedHosts)
		}
		nt := float64(o.Trials)
		pt.MeanFailedLinks /= nt
		pt.MeanFailedSwitches /= nt
		pt.MeanDetachedHostsCount /= nt
		pt.SurvivingHASPL = stats.Summarize(haspl)
		pt.Stretch = stats.Summarize(stretch)
		pt.DisconnectedHosts = stats.Summarize(disc)
		pt.ReachableFrac = stats.Summarize(reach)
		ciSeed := TrialSeed(o.Seed, fi, -7) // distinct from every trial seed
		pt.HASPLLo, pt.HASPLHi = stats.BootstrapCI(haspl, o.Confidence, o.Resamples, ciSeed)
		points[fi] = pt
	}
	return points, nil
}

// DefaultFractions is the 0-20% failure-fraction grid used by orpfault
// -sweep and the resilience figure.
func DefaultFractions() []float64 {
	return []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20}
}
