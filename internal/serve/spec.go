// Package serve is the long-running topology-design service behind
// cmd/orpd. It exposes the repository's three expensive engines —
// graph evaluation, ORP annealing (core.Solve / opt.Anneal) and
// Monte-Carlo fault sweeps — as REST jobs with
//
//   - a priority queue in front of one global worker budget, shared by
//     every concurrent job (elastic scheduling: a high-priority job
//     preempts lower-priority anneals and sweeps through their
//     crash-safe checkpoints, and the preempted jobs later resume
//     bit-identically),
//   - a content-addressed result cache keyed on the canonical job
//     identity (graph fingerprint + result-defining options), so a
//     repeated design query is answered from memory with byte-identical
//     JSON, and
//   - per-job versioned JSONL event streams (the obs schema) that
//     clients can replay and follow over HTTP while the job runs.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/hsgraph"
)

// Job types.
const (
	TypeEval   = "eval"   // evaluate a graph: fault.GraphReport
	TypeAnneal = "anneal" // design a topology: core.Solve / opt.Anneal
	TypeSweep  = "sweep"  // Monte-Carlo fault sweep: []fault.SweepPoint
)

// JobSpec is the body of POST /v1/jobs. Exactly one graph source is
// required: inline canonical text in Graph, or generation parameters
// (N, R and — for eval/sweep jobs, which need a concrete graph rather
// than a design problem — M and GraphSeed for hsgraph.RandomConnected).
type JobSpec struct {
	// Type is one of eval, anneal, sweep.
	Type string `json:"type"`
	// Priority orders the queue: higher runs first, and a job that
	// cannot fit in the worker budget preempts strictly-lower-priority
	// preemptible jobs (anneals and sweeps, via their checkpoints).
	// Equal-priority jobs run FIFO and never preempt each other.
	Priority int `json:"priority,omitempty"`
	// Workers is this job's demand on the server's worker budget
	// (evaluator shards / sweep goroutines). 0 means 1; values above
	// the budget are clamped to it. Results are worker-invariant, so
	// Workers never changes a result — only its wall-clock — and is
	// excluded from the cache key.
	Workers int `json:"workers,omitempty"`

	// Graph is a host-switch graph in the canonical text format
	// (hsgraph.Write). When set, N/M/R/GraphSeed must be zero.
	Graph string `json:"graph,omitempty"`
	// N, R describe the design problem (anneal) or, with M and
	// GraphSeed, the concrete random graph (eval/sweep, and anneal with
	// fixed M runs core.Solve with FixedM).
	N int `json:"n,omitempty"`
	R int `json:"r,omitempty"`
	// M fixes the switch count. Anneal jobs: 0 predicts m_opt
	// (core.Solve). Eval/sweep jobs: required (a concrete graph needs a
	// switch count).
	M int `json:"m,omitempty"`
	// GraphSeed seeds hsgraph.RandomConnected for generated graphs.
	GraphSeed uint64 `json:"graphSeed,omitempty"`

	// Anneal options (TypeAnneal).
	Iterations int    `json:"iterations,omitempty"` // default 50000 (core.Solve's default)
	Seed       uint64 `json:"seed,omitempty"`
	Restarts   int    `json:"restarts,omitempty"` // independent SA runs, best wins; default 1
	EvalMode   string `json:"evalMode,omitempty"` // ignored: exact or incremental are accepted, but the annealer picks its evaluator from the graph's size

	// Sweep options (TypeSweep).
	Model     string    `json:"model,omitempty"`     // links|switches|bundles|targeted
	Fractions []float64 `json:"fractions,omitempty"` // default fault.DefaultFractions
	Trials    int       `json:"trials,omitempty"`    // default 20
}

// normalize validates the spec and fills defaults, returning the parsed
// graph (nil when the job generates or designs its own) and parsed
// enum options.
func (sp *JobSpec) normalize() (g *hsgraph.Graph, model fault.Model, err error) {
	switch sp.Type {
	case TypeEval, TypeAnneal, TypeSweep:
	default:
		return nil, 0, fmt.Errorf("serve: unknown job type %q (want eval, anneal or sweep)", sp.Type)
	}
	if sp.Workers < 0 {
		return nil, 0, fmt.Errorf("serve: workers must be >= 0, got %d", sp.Workers)
	}
	if sp.Graph != "" {
		if sp.N != 0 || sp.M != 0 || sp.R != 0 || sp.GraphSeed != 0 {
			return nil, 0, fmt.Errorf("serve: give either an inline graph or n/m/r/graphSeed, not both")
		}
		g, err = hsgraph.Read(strings.NewReader(sp.Graph))
		if err != nil {
			return nil, 0, fmt.Errorf("serve: inline graph: %w", err)
		}
	} else {
		if sp.N < 1 || sp.R < 3 {
			return nil, 0, fmt.Errorf("serve: generated jobs need n >= 1 and r >= 3 (got n=%d r=%d)", sp.N, sp.R)
		}
		if sp.Type != TypeAnneal && sp.M < 1 {
			return nil, 0, fmt.Errorf("serve: %s jobs need a concrete graph: inline text or m >= 1", sp.Type)
		}
	}
	// evalMode selects nothing any more; the spellings clients used to
	// send are still accepted.
	switch sp.EvalMode {
	case "", "exact", "incremental":
	default:
		return nil, 0, fmt.Errorf("serve: unsupported evalMode %q (want exact or incremental; either selects nothing)", sp.EvalMode)
	}
	if sp.Type == TypeSweep {
		if sp.Model == "" {
			sp.Model = "links"
		}
		model, err = fault.ParseModel(sp.Model)
		if err != nil {
			return nil, 0, err
		}
		if len(sp.Fractions) == 0 {
			sp.Fractions = fault.DefaultFractions()
		}
		for _, f := range sp.Fractions {
			if f < 0 || f > 1 {
				return nil, 0, fmt.Errorf("serve: fraction %v outside [0,1]", f)
			}
		}
		if sp.Trials == 0 {
			sp.Trials = 20
		}
		if sp.Trials < 0 {
			return nil, 0, fmt.Errorf("serve: trials must be > 0, got %d", sp.Trials)
		}
	}
	if sp.Type == TypeAnneal {
		if sp.Iterations == 0 {
			sp.Iterations = 50000
		}
		if sp.Iterations < 0 {
			return nil, 0, fmt.Errorf("serve: iterations must be > 0, got %d", sp.Iterations)
		}
		if sp.Restarts == 0 {
			sp.Restarts = 1
		}
		if sp.Restarts < 0 {
			return nil, 0, fmt.Errorf("serve: restarts must be > 0, got %d", sp.Restarts)
		}
	}
	return g, model, nil
}

// cacheKeyDomain seeds the job-identity hash; bump the suffix whenever a
// result-defining field is added to JobSpec or a result schema changes,
// so stale entries can never masquerade as current ones. This matters
// more now that keys outlive the process: the persistent run store
// serves old bytes under their recorded key, and a domain bump is what
// keeps a schema change from replaying them. (v1 → v2: anneal results
// gained the always-on energy trace. v2 → v3: the evaluation mode left
// the key.)
const cacheKeyDomain = "orp.serve.job.v3"

// cacheKey is the content address of a job's result: a hash over the
// canonical identity of the query. Every result-defining field goes in —
// the graph (by canonical fingerprint, so storage order is invisible) or
// its generation parameters, and the engine options. EvalMode, Workers
// and Priority stay out: EvalMode selects nothing, results are
// worker-invariant, and scheduling never changes a result.
func (sp *JobSpec) cacheKey(g *hsgraph.Graph) string {
	h := sha256.New()
	w := func(parts ...any) {
		for _, p := range parts {
			fmt.Fprintf(h, "%v\x00", p)
		}
	}
	w(cacheKeyDomain, sp.Type)
	if g != nil {
		fp := g.Fingerprint()
		w("graph", fp.String())
	} else {
		w("gen", sp.N, sp.M, sp.R, sp.GraphSeed)
	}
	switch sp.Type {
	case TypeAnneal:
		w(sp.Iterations, sp.Seed, sp.Restarts)
	case TypeSweep:
		// Fraction order is kept: []SweepPoint comes back in the given
		// order, so reordering fractions is a different (reordered) result.
		w(sp.Model, sp.Trials, sp.Seed)
		for _, f := range sp.Fractions {
			w(f)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
