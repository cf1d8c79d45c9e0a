package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/serve"
)

// The scale workload is ROADMAP item 4's size: one g-symmetric solve at
// n=16384 through core.Solve, the orpsolve path, then hsgraph.Write of
// the result. Its iteration count grows with the run length, so the one
// solve fills the run on the reference machine (~4.2 s of start-graph
// generation and evaluator set-up, then ~9 ms per move).
const (
	scaleN, scaleR, scaleSym = 16384, 16, 4
	scaleItersPerSecond      = 90
)

// solveInfo is what the scale op leaves for the per-layer analysis.
type solveInfo struct {
	eval opt.EvalStats
	rows int // rows of the orbit-quotient distance cache: m / symmetry
}

func scaleOptions(seed uint64, iters, workers int) core.Options {
	return core.Options{Iterations: iters, Seed: seed, Workers: workers, Symmetry: scaleSym, Eval: opt.EvalSymmetric}
}

// scaleSetup warms the solver with a small solve of the same kind, so
// code paths and the heap are warm before the timed solve.
func scaleSetup(r *runner, _ string) error {
	_, err := core.Solve(cellN, cellR, scaleOptions(seedFor(r.seed, "warm", 0), 1000, r.workers))
	return err
}

func scalePhase(_ context.Context, r *runner, stream string, traced bool) *phaseOut {
	o := newOp(kindSolve, stream, 0, serve.JobSpec{Type: serve.TypeAnneal, N: scaleN, R: scaleR,
		Iterations: int(r.seconds.Seconds() * scaleItersPerSecond), Seed: seedFor(r.seed, stream, 0)})
	o.digest = true
	p := &phaseOut{closedFrom: time.Now(), solve: &solveInfo{}}
	o.due, o.sent = p.closedFrom, p.closedFrom

	var root *obs.Span
	if traced {
		root = obs.NewTracer(stream, o.due, func(e obs.Event) { o.client = append(o.client, e) }).Root("client.op")
		root.SetS("kind", o.kind)
	}
	ssp := root.Child("core.solve")
	opts := scaleOptions(o.spec.Seed, o.spec.Iterations, r.workers)
	opts.Span = ssp
	top, err := core.Solve(scaleN, scaleR, opts)
	ssp.Fail(err)
	var text bytes.Buffer
	if err == nil {
		wsp := root.Child("hsgraph.write")
		err = hsgraph.Write(&text, top.Graph)
		wsp.Fail(err)
	}
	o.done = time.Now()
	root.Fail(err)
	o.err = err
	if err == nil {
		p.solve.eval = top.Anneal.Eval
		p.solve.rows = top.MUsed / scaleSym
		// The reply a user gets is the written graph plus the solver's own
		// metrics; package them like an orpd anneal result so one verifier
		// checks both paths. The fingerprint is computed outside the timed op.
		res := top.Anneal
		o.result, o.err = json.Marshal(serve.AnnealResult{
			Graph:       fault.NewGraphReport(top.Graph, top.Metrics),
			Fingerprint: top.Graph.Fingerprint().String(),
			GraphText:   text.String(),
			Method:      top.Method.String(),
			MUsed:       top.MUsed,
			LowerBound:  top.LowerBound,
			Anneal:      &res,
		})
		if o.err != nil {
			o.err = fmt.Errorf("bench: package solve result: %w", o.err)
		}
	}
	p.fg, p.closed, p.all = []*op{o}, []*op{o}, []*op{o}
	p.closedTo = o.done
	return p
}
