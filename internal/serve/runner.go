package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
)

// execute runs j's engine to completion (or until Drain stops it) and
// returns the marshaled result. It holds no scheduler locks: the only
// shared state it touches is the job's event log (internally locked),
// the run-episode span (set before this goroutine launched, and by
// start before a parked engine resumes), the interrupt flag and, when
// preempted, the pause hook, which takes the lock itself.
func (s *scheduler) execute(j *job) (json.RawMessage, error) {
	switch j.spec.Type {
	case TypeEval:
		return executeEval(j)
	case TypeAnneal:
		return s.executeAnneal(j)
	case TypeSweep:
		return s.executeSweep(j)
	}
	return nil, fmt.Errorf("serve: unknown job type %q", j.spec.Type) // unreachable after normalize
}

// concreteGraph resolves the job's input graph: the inline one, or the
// deterministic random graph its generation parameters name.
func concreteGraph(j *job) (*hsgraph.Graph, error) {
	if j.graph != nil {
		return j.graph.Clone(), nil
	}
	g, err := hsgraph.RandomConnected(j.spec.N, j.spec.M, j.spec.R, rng.New(j.spec.GraphSeed))
	if err != nil {
		return nil, fmt.Errorf("serve: generate graph: %w", err)
	}
	return g, nil
}

// encodeResult marshals v under an "encode" child of the run span, so
// the trace separates engine time from serialization time.
func encodeResult(j *job, v any) (json.RawMessage, error) {
	esp := j.runSpan.Child("encode")
	b, err := marshalResult(v)
	esp.SetF("bytes", float64(len(b)))
	esp.Fail(err)
	return b, err
}

func executeEval(j *job) (json.RawMessage, error) {
	g, err := concreteGraph(j)
	if err != nil {
		return nil, err
	}
	met := g.EvaluateParallel(j.workers)
	return encodeResult(j, EvalResult{
		Graph:       fault.NewGraphReport(g, met),
		Fingerprint: g.Fingerprint().String(),
	})
}

// logObserver streams anneal telemetry into the job's event log, encoded
// by opt.AnnealSample.Event as cliutil.AnnealObserver encodes orpsolve's
// -trace-out files, and forwards the incremental cache's counters to the
// orpd_inc_* instruments.
//
// The engine's EvalStats are cumulative per restart; the observer keeps
// the previous snapshot per restart and adds only the delta, so the
// service counters stay monotone across concurrent jobs and restarts.
// A snapshot that runs backwards means the engine's counters restarted
// (a fresh cache) — the whole new snapshot is fresh work then.
type logObserver struct {
	log *eventLog
	met *metrics // nil in tests that only want the event stream

	mu   sync.Mutex
	last map[int]opt.EvalStats // per restart
}

func newLogObserver(log *eventLog, met *metrics) *logObserver {
	return &logObserver{log: log, met: met, last: make(map[int]opt.EvalStats)}
}

func (o *logObserver) ObserveAnneal(sm opt.AnnealSample) {
	o.log.Append(sm.Event())

	if o.met == nil {
		return
	}
	o.mu.Lock()
	prev := o.last[sm.Restart]
	o.last[sm.Restart] = sm.Eval
	o.mu.Unlock()
	ev, pv := sm.Eval, prev
	addDelta(o.met.incSyncs, ev.Inc.Syncs, pv.Inc.Syncs)
	addDelta(o.met.incRebuilds, ev.Inc.FullRebuilds, pv.Inc.FullRebuilds)
	addDelta(o.met.incPeekReuses, ev.Inc.StoredPeekReuses, pv.Inc.StoredPeekReuses)
	addDelta(o.met.incSwept, ev.Inc.SweptSources, pv.Inc.SweptSources)
	addDelta(o.met.incDirty, ev.Inc.DirtySources, pv.Inc.DirtySources)
}

// addDelta advances a monotone counter from a cumulative snapshot pair.
func addDelta(c *obs.Counter, cur, prev int64) {
	switch {
	case cur > prev:
		c.Add(cur - prev)
	case cur < prev:
		c.Add(cur) // source counters restarted; the snapshot is all new work
	}
}

// pauseHook is j's engine pause hook (see scheduler.pause).
func (s *scheduler) pauseHook(j *job) func() (*obs.Span, bool) {
	return func() (*obs.Span, bool) { return s.pause(j) }
}

func (s *scheduler) executeAnneal(j *job) (json.RawMessage, error) {
	res := AnnealResult{Method: "annealed"}
	var g *hsgraph.Graph
	var met hsgraph.Metrics // the engine's own evaluation of g

	if j.graph != nil {
		// Inline start graph: anneal it directly (the client chose the
		// topology to improve; core.Solve would generate its own start).
		ao := opt.Options{
			Iterations:  j.spec.Iterations,
			Seed:        j.spec.Seed,
			Workers:     j.workers,
			TraceEnergy: true, // results carry their convergence trace (run-store records reuse it)
			Observer:    newLogObserver(j.log, s.met),
			Interrupt:   &j.intr,
			Pause:       s.pauseHook(j),
			Span:        j.runSpan,
		}
		var annealRes opt.Result
		var err error
		if j.spec.Restarts > 1 {
			g, annealRes, err = opt.ParallelAnneal(j.graph.Clone(), ao, j.spec.Restarts)
		} else {
			g, annealRes, err = opt.Anneal(j.graph.Clone(), ao)
		}
		if err != nil {
			return nil, err
		}
		res.Anneal = &annealRes
		res.MUsed = g.Switches()
		met = annealRes.Best
	} else {
		top, err := core.Solve(j.spec.N, j.spec.R, core.Options{
			Iterations:  j.spec.Iterations,
			Restarts:    j.spec.Restarts,
			Seed:        j.spec.Seed,
			FixedM:      j.spec.M,
			Workers:     j.workers,
			TraceEnergy: true,
			Observer:    newLogObserver(j.log, s.met),
			Interrupt:   &j.intr,
			Pause:       s.pauseHook(j),
			Span:        j.runSpan,
		})
		if err != nil {
			return nil, err
		}
		g, met = top.Graph, top.Metrics
		res.Method = top.Method.String()
		res.MPredicted = top.MPredicted
		res.MUsed = top.MUsed
		res.LowerBound = top.LowerBound
		if top.Method == core.Annealed {
			r := top.Anneal
			res.Anneal = &r
		}
	}

	res.Graph = fault.NewGraphReport(g, met)
	res.Fingerprint = g.Fingerprint().String()
	var buf bytes.Buffer
	if err := hsgraph.Write(&buf, g); err != nil {
		return nil, err
	}
	res.GraphText = buf.String()
	return encodeResult(j, res)
}

func (s *scheduler) executeSweep(j *job) (json.RawMessage, error) {
	g, err := concreteGraph(j)
	if err != nil {
		return nil, err
	}
	so := fault.SweepOptions{
		Model:     j.model,
		Fractions: j.spec.Fractions,
		Trials:    j.spec.Trials,
		Seed:      j.spec.Seed,
		Workers:   j.workers,
		Interrupt: &j.intr,
		Pause:     s.pauseHook(j),
		Span:      j.runSpan,
		OnTrial: func(p fault.TrialProgress) {
			j.log.Append(p.Event())
		},
	}
	points, err := fault.Sweep(g, so)
	if err != nil {
		return nil, err
	}
	return encodeResult(j, SweepResult{
		Graph:       fault.NewGraphReport(g, g.EvaluateParallel(j.workers)),
		Fingerprint: g.Fingerprint().String(),
		Model:       j.model.String(),
		Trials:      j.spec.Trials,
		Seed:        j.spec.Seed,
		Points:      points,
	})
}
