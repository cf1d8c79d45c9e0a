package opt

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// EvalMode selects how the annealer evaluates candidate moves. Every mode
// computes the exact candidate energy, bit for bit, so every mode produces
// the same accepted-move sequence and the same final graphs for a given
// seed; they differ only in how much work a decision costs.
type EvalMode int

// The numeric values are stored in orp.anneal.v3 checkpoints; 2 belonged
// to the retired sampled mode (see evalRetiredLadder).
const (
	// EvalExact evaluates every candidate with the full sharded sweep
	// (hsgraph.Evaluator). The reference mode; the default.
	EvalExact EvalMode = 0
	// EvalIncremental evaluates every candidate exactly, but through the
	// distance-row cache (hsgraph.IncrementalEvaluator): only the rows a
	// move can change are repaired. Energies are bit-identical to
	// EvalExact, so decisions trivially agree.
	EvalIncremental EvalMode = 1
	// EvalSymmetric evaluates through the orbit-quotient incremental
	// cache (hsgraph.NewOrbitIncrementalEvaluator): only orbit-
	// representative rows are cached and repaired, ~Symmetry× fewer
	// than EvalIncremental, with the fold scaled by the orbit size for
	// bit-identical energies. Requires Options.Symmetry >= 2 and a start
	// graph closed under the group action; the symmetric move operators
	// (enabled by Options.Symmetry with any mode) keep it closed.
	EvalSymmetric EvalMode = 3
)

func (e EvalMode) String() string {
	switch e {
	case EvalExact:
		return "exact"
	case EvalIncremental:
		return "incremental"
	case EvalSymmetric:
		return "symmetric"
	}
	return fmt.Sprintf("EvalMode(%d)", int(e))
}

// ParseEvalMode parses the CLI spelling of an evaluation mode.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "exact", "":
		return EvalExact, nil
	case "incremental":
		return EvalIncremental, nil
	case "symmetric":
		return EvalSymmetric, nil
	}
	return 0, fmt.Errorf("opt: unknown evaluation mode %q (want exact, incremental or symmetric)", s)
}

// acceptExact is the Metropolis rule: accept downhill moves outright,
// uphill moves with probability exp(-delta/temp), consuming one draw only
// in the uphill case. A candidate of math.MaxInt64 (disconnected) is
// rejected without a draw.
func acceptExact(candidate, cur int64, temp float64, rnd *rng.Rand) bool {
	if candidate == math.MaxInt64 {
		return false
	}
	delta := candidate - cur
	if delta <= 0 {
		return true
	}
	return rnd.Float64() < math.Exp(-float64(delta)/temp)
}
