package opt

import (
	"repro/internal/hsgraph"
	"repro/internal/obs"
)

// Anneal telemetry. The annealer samples its state every
// Options.ReportEvery iterations and hands the sample to a pluggable
// Observer. The nil-observer hot path does no timing calls and no
// allocations (guarded in opt's tests and the root benchmarks); a non-nil
// observer costs one time.Now per interval plus whatever the observer
// itself does.

// MoveCounters breaks proposed/accepted moves down by operation. For the
// 2-neighbor-swing move set, "swing" is the step-1 swing and "counter" the
// step-3 complementary swing (the one that completes a swap); the swap-
// and swing-only move sets fill their own pair. Counts are cumulative over
// the run.
type MoveCounters struct {
	SwapAttempts    int64
	SwapAccepts     int64
	SwingAttempts   int64
	SwingAccepts    int64
	CounterAttempts int64
	CounterAccepts  int64
}

// EvalStats is the evaluation introspection snapshot carried on every
// AnnealSample. All counters are cumulative over the run (restart-local
// under ParallelAnneal); consumers diff successive samples for rates.
// Zero on the exact path, which has no cache to introspect.
type EvalStats struct {
	// Inc is the incremental evaluator's internal decision counters —
	// commits, full-rebuild fallbacks, peek-stamp reuse, dirty and
	// swept source totals. Populated on the cache path.
	Inc hsgraph.IncStats
}

// evalStats snapshots inc's counters; nil (the exact path) reports zeros.
func evalStats(inc *hsgraph.IncrementalEvaluator) EvalStats {
	if inc == nil {
		return EvalStats{}
	}
	return EvalStats{Inc: inc.Stats()}
}

// AnnealSample is one telemetry interval of a running anneal.
type AnnealSample struct {
	// Restart identifies the ParallelAnneal restart emitting the sample
	// (0 for plain Anneal).
	Restart int
	// Iter is the number of iterations completed; Iterations the total
	// budget.
	Iter, Iterations int
	// Temp is the current temperature.
	Temp float64
	// Current and Best are energies (total host-pair path length).
	Current, Best int64
	// Accepted and Proposed are cumulative move counts.
	Accepted, Proposed int
	// Moves breaks the counts down by operation.
	Moves MoveCounters
	// MovesPerSec is the wall-clock iteration rate since the previous
	// sample; Elapsed the wall-clock seconds since the run began.
	MovesPerSec float64
	Elapsed     float64
	// Eval is the incremental cache's introspection snapshot (zero on the
	// exact path).
	Eval EvalStats
}

// AcceptRate is cumulative accepted/proposed (0 when nothing proposed).
func (s AnnealSample) AcceptRate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
}

// Event encodes the sample as one anneal.sample event with the field keys
// obs/schema.go lists, the same set on every path (the cache counters
// read zero on the exact path). orpsolve's trace files and orpd's job
// streams both write it.
func (s AnnealSample) Event() obs.Event {
	return obs.Event{T: s.Elapsed, Kind: obs.KindAnnealSample, F: map[string]float64{
		"iter":            float64(s.Iter),
		"temp":            s.Temp,
		"current":         float64(s.Current),
		"best":            float64(s.Best),
		"accepted":        float64(s.Accepted),
		"proposed":        float64(s.Proposed),
		"swapAttempts":    float64(s.Moves.SwapAttempts),
		"swapAccepts":     float64(s.Moves.SwapAccepts),
		"swingAttempts":   float64(s.Moves.SwingAttempts),
		"swingAccepts":    float64(s.Moves.SwingAccepts),
		"counterAttempts": float64(s.Moves.CounterAttempts),
		"counterAccepts":  float64(s.Moves.CounterAccepts),
		"movesPerSec":     s.MovesPerSec,
		"restart":         float64(s.Restart),
		"incSyncs":        float64(s.Eval.Inc.Syncs),
		"incFullRebuilds": float64(s.Eval.Inc.FullRebuilds),
		"incPeeks":        float64(s.Eval.Inc.Peeks),
	}}
}

// Observer receives anneal telemetry. Implementations must be safe for
// concurrent use when passed to ParallelAnneal with more than one restart
// (every restart samples into the same observer, tagged by Restart).
type Observer interface {
	ObserveAnneal(s AnnealSample)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(s AnnealSample)

// ObserveAnneal calls f(s).
func (f ObserverFunc) ObserveAnneal(s AnnealSample) { f(s) }
