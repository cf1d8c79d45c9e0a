package opt

import "repro/internal/hsgraph"

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
// Zero in exact mode, which has no cache to introspect.
type EvalStats struct {
	// Inc is the incremental evaluator's internal decision counters —
	// commits, full-rebuild fallbacks, peek-stamp reuse, dirty and
	// swept source totals. Populated in every cache-backed mode.
	Inc hsgraph.IncStats
}

// evalStats snapshots inc's counters; nil (exact mode) reports zeros.
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
	// Eval is the incremental cache's introspection snapshot (zero in
	// exact mode).
	Eval EvalStats
}

// AcceptRate is cumulative accepted/proposed (0 when nothing proposed).
func (s AnnealSample) AcceptRate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
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
