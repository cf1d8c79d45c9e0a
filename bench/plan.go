package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The problem cell every workload but scale uses: the paper's n=1024,
// r=15 design point. evalM is its continuous-Moore m_opt, the switch
// count core.Solve picks, so eval queries and anneal results describe
// the same graphs a user of this cell sees.
const (
	cellN = 1024
	cellR = 15
	evalM = 195
)

// Op kinds. The per-class latency metrics and the verifier key on them.
const (
	kindHit    = "hit"    // generated eval spec warmed into the cache
	kindInline = "inline" // inline-graph eval spec warmed into the cache
	kindMiss   = "miss"   // generated eval spec with a fresh graph seed
	kindAnneal = "anneal" // anneal job through orpd
	kindSolve  = "solve"  // in-process core.Solve + hsgraph.Write (scale)
)

// op is one unit of user-visible work — a query, a job or a solve — from
// its generated input to its checked result.
type op struct {
	kind   string
	stream string // the generator stream the op came from
	index  int    // position in that stream
	spec   serve.JobSpec
	body   []byte // POST /v1/jobs body; shared between ops of one spec
	key    string // spec identity: cache hits must replay the first reply's bytes
	at     time.Duration
	digest bool // part of the seed-fixed prefix behind results_digest

	// Filled in when the op runs.
	due, sent, done time.Time
	lag             time.Duration // how late the open-loop sender dispatched it
	submit          time.Duration // POST round trip
	jobID           string
	cached          bool
	preemptions     int
	result          json.RawMessage
	events          []byte      // the job's event stream (traced runs)
	client          []obs.Event // the benchmark's own spans around the op (traced runs)
	err             error
}

func (o *op) latency() time.Duration { return o.done.Sub(o.due) }

// designs reports whether the op produces a topology (an anneal job or
// the scale solve) rather than evaluating one.
func (o *op) designs() bool { return o.kind == kindAnneal || o.kind == kindSolve }

// seedFor derives the seed of item i of a named stream from the run
// seed, so every generated input depends on the seed alone and streams
// never share values.
func seedFor(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	s := seed ^ h.Sum64() ^ uint64(i)*0x9e3779b97f4a7c15
	return rng.SplitMix64(&s)
}

// mustBody marshals a job spec. Specs are built here from plain fields,
// so a failure is a bug.
func mustBody(spec serve.JobSpec) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal spec: %v", err))
	}
	return b
}

func newOp(kind, stream string, index int, spec serve.JobSpec) *op {
	body := mustBody(spec)
	return &op{kind: kind, stream: stream, index: index, spec: spec, body: body, key: string(body)}
}

func genEvalSpec(graphSeed uint64) serve.JobSpec {
	return serve.JobSpec{Type: serve.TypeEval, N: cellN, M: evalM, R: cellR, GraphSeed: graphSeed}
}

// arrivals returns the arrival offsets of a Poisson process at rate per
// second over d, conditioned on its expected count: that many offsets
// drawn uniformly from [0, d) and sorted. Fixing the count keeps the
// offered load equal across seeds, so seeds differ only in when requests
// arrive and what they ask for.
func arrivals(rnd *rng.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*d.Seconds()))
	for i := range out {
		out[i] = time.Duration(rnd.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// queryInputs is the query workload's warm set: the specs every cache
// hit replays.
type queryInputs struct {
	gen    []*op // generated eval specs
	inline []*op // inline-graph eval specs
}

const (
	queryGenSpecs    = 64
	queryInlineSpecs = 8
)

func newQueryInputs(seed uint64) (*queryInputs, error) {
	in := &queryInputs{}
	for i := 0; i < queryGenSpecs; i++ {
		in.gen = append(in.gen, newOp(kindMiss, "warm", i, genEvalSpec(seedFor(seed, "warm-gen", i))))
	}
	for i := 0; i < queryInlineSpecs; i++ {
		g, err := hsgraph.RandomConnected(cellN, evalM, cellR, rng.New(seedFor(seed, "warm-inline", i)))
		if err != nil {
			return nil, fmt.Errorf("bench: inline graph: %w", err)
		}
		var buf bytes.Buffer
		if err := hsgraph.Write(&buf, g); err != nil {
			return nil, err
		}
		spec := serve.JobSpec{Type: serve.TypeEval, Graph: buf.String()}
		in.inline = append(in.inline, newOp(kindMiss, "warm", queryGenSpecs+i, spec))
	}
	return in, nil
}

// warm returns the warm set in submission order.
func (in *queryInputs) warm() []*op { return append(append([]*op(nil), in.gen...), in.inline...) }

// queryOp draws one op of the query mix: 80 % hits on the generated
// warm specs, 10 % hits on the inline warm specs, 10 % cold evals with a
// fresh graph seed.
func (in *queryInputs) queryOp(rnd *rng.Rand, seed uint64, stream string, i int) *op {
	var o *op
	switch u := rnd.Float64(); {
	case u < 0.8:
		w := in.gen[rnd.Intn(len(in.gen))]
		o = &op{kind: kindHit, spec: w.spec, body: w.body, key: w.key}
	case u < 0.9:
		w := in.inline[rnd.Intn(len(in.inline))]
		o = &op{kind: kindInline, spec: w.spec, body: w.body, key: w.key}
	default:
		o = newOp(kindMiss, "", 0, genEvalSpec(seedFor(seed, stream+"-miss", i)))
	}
	o.stream, o.index = stream, i
	return o
}

// querySchedule is the open-loop schedule: Poisson arrivals at queryRate
// over d.
func (in *queryInputs) querySchedule(seed uint64, stream string, d time.Duration) []*op {
	rnd := rng.New(seedFor(seed, stream, 0))
	var ops []*op
	for i, at := range arrivals(rnd, queryRate, d) {
		o := in.queryOp(rnd, seed, stream, i)
		o.at = at
		ops = append(ops, o)
	}
	return ops
}

// capacityOp is op i of the closed-loop capacity phase: a cache hit on
// a generated warm spec. Cold evals and inline graphs stay out of this
// phase: a cold eval's cost is mostly a run-store fsync on shared
// storage, and every inline job record keeps its parsed graph, so either
// would tie the phase to disk noise and its memory to how many ops fit.
func (in *queryInputs) capacityOp(seed uint64, stream string, i int) *op {
	w := in.gen[rng.New(seedFor(seed, stream, i)).Intn(len(in.gen))]
	return &op{kind: kindHit, stream: stream, index: i, spec: w.spec, body: w.body, key: w.key}
}

// designJob is job i of the design stream.
func designJob(seed uint64, stream string, i int) *op {
	return newOp(kindAnneal, stream, i, serve.JobSpec{
		Type: serve.TypeAnneal, N: cellN, R: cellR, Iterations: designIters,
		EvalMode: "incremental", Workers: 1, Seed: seedFor(seed, stream, i),
	})
}

// contendJob is background job i of the contend workload: an exact-mode
// anneal on the whole worker budget at priority 0.
func contendJob(seed uint64, stream string, i, workers int) *op {
	return newOp(kindAnneal, stream, i, serve.JobSpec{
		Type: serve.TypeAnneal, N: cellN, R: cellR, Iterations: contendIters,
		Workers: workers, Seed: seedFor(seed, stream, i),
	})
}

// contendSchedule is the contend foreground: Poisson cold evals at
// priority 1, each of which preempts the running background anneal.
func contendSchedule(seed uint64, stream string, d time.Duration) []*op {
	rnd := rng.New(seedFor(seed, stream, 0))
	var ops []*op
	for i, at := range arrivals(rnd, contendRate, d) {
		spec := genEvalSpec(seedFor(seed, stream+"-miss", i))
		spec.Priority, spec.Workers = 1, 1
		o := newOp(kindMiss, stream, i, spec)
		o.at = at
		ops = append(ops, o)
	}
	return ops
}
