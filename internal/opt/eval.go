package opt

import (
	"math"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// EvalMode names the evaluation modes callers once chose between. The
// annealer now picks its evaluator from the graph's size (see scorer), and
// every path computes the same energies bit for bit, so a mode selects
// nothing. The names remain because callers still spell them and
// orp.anneal.v3 snapshots store the value: new snapshots write 0, and 2
// belonged to the retired sampled mode (see evalRetiredLadder).
type EvalMode int

// Deprecated: the evaluation modes select nothing; see EvalMode.
const (
	EvalExact       EvalMode = 0
	EvalIncremental EvalMode = 1
	EvalSymmetric   EvalMode = 3
)

// scorer computes one run's candidate energies on the path
// hsgraph.PreferIncremental picks from the graph's size and symmetry: the
// incremental cache, with orbit-representative rows under symmetry, where
// it pays and fits; the sharded Evaluator everywhere else. Every path
// returns the same integers bit for bit, so the accepted-move sequence
// does not depend on the path.
type scorer struct {
	ev        *hsgraph.Evaluator
	inc       *hsgraph.IncrementalEvaluator // nil on the exact path
	reference bool                          // tests only: energies from EvaluateSlow
}

// newScorer picks the path for a graph of m switches under symmetry order
// sym (values below 2 mean none). ev serves the exact path, and its pool
// runs the cache's passes, so a run keeps one pool.
func newScorer(ev *hsgraph.Evaluator, m, sym int, reference bool) *scorer {
	sc := &scorer{ev: ev, reference: reference}
	if !reference && hsgraph.PreferIncremental(m, sym) {
		sc.inc = hsgraph.NewIncrementalEvaluator(ev, sym)
	}
	return sc
}

// peek returns g's energy, or (0, false) when g is disconnected, without
// committing g to the cache: rejecting the candidate and undoing the move
// costs the cache nothing. The first call on a graph attaches the cache.
func (sc *scorer) peek(g *hsgraph.Graph) (int64, bool) {
	switch {
	case sc.reference:
		met := g.EvaluateSlow()
		if !met.Connected {
			return 0, false
		}
		return met.TotalPath, true
	case sc.inc == nil:
		return sc.ev.Energy(g)
	}
	if e, connected, ok := sc.inc.PeekEnergy(g); ok {
		return e, connected
	}
	return sc.inc.Energy(g)
}

// commit makes g, the candidate peeked last, the cache's committed state.
func (sc *scorer) commit(g *hsgraph.Graph) {
	if sc.inc != nil {
		sc.inc.Energy(g)
	}
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
