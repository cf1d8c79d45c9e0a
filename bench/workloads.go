package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// Workload sizes, chosen so each run's op count supports its tail
// percentile (see tailPercentile) at the run length in BENCHMARK.json.
const (
	designIters       = 5000 // ~0.3 s per job on the reference machine
	designDigestJobs  = 24
	queryRate         = 300.0 // open-loop arrivals per second
	contendRate       = 10.0  // foreground arrivals per second
	contendIters      = 6000  // background anneal length
	contendDigestJobs = 6
	setupRepeats      = 5
	maxConns          = 2
)

// workload is one traffic mix. setup builds what the timed phase needs
// and is timed as setup_s; phase runs the timed traffic once.
type workload struct {
	name string
	// tail is the fixed percentile behind latency_tail_ms: the highest
	// one that keeps at least ten samples beyond it at the nominal op
	// count (100 means the maximum, for a run of one op).
	tail float64
	// opsPerSecond is the nominal rate of latency samples on the
	// reference machine (2 cores).
	opsPerSecond float64
	setup        func(r *runner, dir string) error
	phase        func(ctx context.Context, r *runner, stream string, traced bool) *phaseOut
}

var workloads = []*workload{
	{name: "design", tail: 80, opsPerSecond: 3.2, setup: serveSetup, phase: designPhase},
	{name: "query", tail: 99, opsPerSecond: queryRate * 7 / 8, setup: serveSetup, phase: queryPhase},
	{name: "contend", tail: 90, opsPerSecond: contendRate, setup: serveSetup, phase: contendPhase},
	{name: "scale", tail: 100, opsPerSecond: 0, setup: scaleSetup, phase: scalePhase},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want design, query, contend or scale)", name)
}

// runner holds one invocation's configuration and the set-up it kept.
type runner struct {
	w       *workload
	seed    uint64
	seconds time.Duration
	workers int // the server's worker budget: 2, or nproc when smaller
	h       *harness
	query   *queryInputs
	warm    []*op // set-up ops of the kept set-up, verified with the rest
}

// phaseOut is what one timed phase produced.
type phaseOut struct {
	fg         []*op // ops behind the latency metrics
	closed     []*op // closed-loop ops behind throughput_ops_s
	closedFrom time.Time
	closedTo   time.Time // ops finishing later are not counted in throughput
	all        []*op     // every op the phase ran
	solve      *solveInfo
}

func (p *phaseOut) digestOps() []*op {
	var out []*op
	for _, o := range p.all {
		if o.digest {
			out = append(out, o)
		}
	}
	return out
}

func (r *runner) exec(ctx context.Context, traced bool) func(*op) {
	return func(o *op) { r.h.exec(ctx, o, traced) }
}

// serveSetup starts orpd in-process and warms it. Every orpd workload
// warms with its own inputs: query fills the cache with its 72 warm
// specs; design and contend run one short job of their own shape, so
// code paths, the store file and the heap are warm before timing.
func serveSetup(r *runner, dir string) error {
	h, err := startHarness(dir, r.workers)
	if err != nil {
		return err
	}
	var warm []*op
	switch r.w.name {
	case "query":
		for _, w := range r.query.warm() {
			o := *w // each set-up runs its own copy of the warm set
			warm = append(warm, &o)
		}
	case "design":
		warm = []*op{shortened(designJob(r.seed, "warm", 0))}
	case "contend":
		warm = []*op{shortened(contendJob(r.seed, "warm", 0, r.workers))}
	}
	for _, o := range warm {
		o.due = time.Now()
		h.exec(context.Background(), o, false)
		if o.err != nil {
			h.close()
			return fmt.Errorf("bench: warm-up: %w", o.err)
		}
	}
	r.h, r.warm = h, warm
	return nil
}

// shortened is a warm-up copy of an anneal job: same shape, 1000
// iterations.
func shortened(o *op) *op {
	spec := o.spec
	spec.Iterations = 1000
	return newOp(o.kind, o.stream, o.index, spec)
}

func designPhase(ctx context.Context, r *runner, stream string, traced bool) *phaseOut {
	p := &phaseOut{closedFrom: time.Now()}
	ops := closedLoop(ctx, 1, r.seconds, func(i int) *op {
		o := designJob(r.seed, stream, i)
		o.digest = i < designDigestJobs
		return o
	}, r.exec(ctx, traced))
	p.fg, p.closed, p.all, p.closedTo = ops, ops, ops, time.Now()
	return p
}

// queryPhase spends seven eighths of the run in the open loop and the
// rest in a closed-loop capacity phase on maxConns connections. orpd
// keeps every job record (its default retention), so the capacity phase
// is kept short: each cached query it serves adds ~9 KB to the heap.
func queryPhase(ctx context.Context, r *runner, stream string, traced bool) *phaseOut {
	p := &phaseOut{}
	open := r.seconds * 7 / 8
	sched := r.query.querySchedule(r.seed, stream, open)
	for _, o := range sched {
		o.digest = true
	}
	openLoop(ctx, sched, maxConns, r.exec(ctx, traced))
	p.closedFrom = time.Now()
	capOps := closedLoop(ctx, maxConns, r.seconds-open, func(i int) *op {
		return r.query.capacityOp(r.seed, stream+"-cap", i)
	}, r.exec(ctx, traced))
	p.fg, p.closed, p.closedTo = sched, capOps, time.Now()
	p.all = append(append([]*op(nil), sched...), capOps...)
	return p
}

// contendPhase runs the foreground schedule against a closed-loop
// background of exact-mode anneals that every foreground eval preempts.
// Background jobs finishing after the foreground ends ran uncontended
// and are left out of throughput.
func contendPhase(ctx context.Context, r *runner, stream string, traced bool) *phaseOut {
	p := &phaseOut{closedFrom: time.Now()}
	sched := contendSchedule(r.seed, stream, r.seconds)
	for _, o := range sched {
		o.digest = true
	}
	stop := make(chan struct{})
	bgDone := make(chan []*op, 1)
	go func() {
		bgDone <- closedLoopUntil(ctx, 1, time.Now().Add(10*r.seconds), stop, func(i int) *op {
			o := contendJob(r.seed, stream+"-bg", i, r.workers)
			o.digest = i < contendDigestJobs
			return o
		}, r.exec(ctx, traced))
	}()
	openLoop(ctx, sched, 1, r.exec(ctx, traced))
	p.closedTo = time.Now()
	close(stop)
	bg := <-bgDone
	p.fg, p.closed = sched, bg
	p.all = append(append([]*op(nil), sched...), bg...)
	return p
}

func defaultWorkers() int { return min(2, runtime.NumCPU()) }
