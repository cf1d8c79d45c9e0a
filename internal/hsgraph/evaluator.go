package hsgraph

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Evaluator computes graph metrics with reusable scratch buffers and an
// optional pool of shard workers, so that the millions of evaluations an
// annealing run performs amortize all setup: after the first call on a
// given switch-count, the steady state is allocation-free.
//
// The bit-parallel BFS runs up to 128 sources per sweep (one per bit lane
// of two machine words); the Evaluator splits the sources into shards and
// distributes them over a pool of persistent worker goroutines. Each
// worker owns private scratch words and accumulates a private partial
// (path sum, reachable pairs, diameter); partials are merged with integer
// addition and max, so the result is bit-for-bit identical to the serial
// Evaluate for every worker count and every scheduling of the shards.
// The pool and the per-worker scratch also serve an IncrementalEvaluator
// built over the Evaluator: its row repairs and its row and totals sweeps
// run as rounds of the same pool (see round).
//
// An Evaluator is not safe for concurrent use by multiple goroutines; give
// each searcher its own (the pool inside is private to it), and drive an
// IncrementalEvaluator built over it from the same goroutine. It is not
// tied to one Graph — any graph may be passed, and buffers grow to the
// largest switch count seen. Call Close when done to release the pool
// goroutines.
type Evaluator struct {
	workers int

	srcs      []int32        // host-bearing switches, gathered per call
	shards    []sweepScratch // one per worker
	shardTask func(w int)    // e.runShards, bound once

	// Per-round state: written by the caller before waking the pool,
	// read-only by workers during the round (the channel operations order
	// the accesses).
	g      *Graph
	chunk  int
	cursor atomic.Int64 // next item index to claim

	wake   chan wakeToken // one token per pooled worker in a round
	done   chan struct{}
	closed bool
}

// wakeToken hands a pooled goroutine one round's task and the worker
// index whose scratch it uses.
type wakeToken struct {
	task func(w int)
	w    int
}

// NewEvaluator returns an Evaluator with the given number of shard
// workers. Values below 1 are treated as 1 (fully serial, no pool
// goroutines). Callers wanting hardware-sized pools typically pass
// runtime.GOMAXPROCS(0); larger explicit counts are honoured, which lets
// tests exercise the concurrent merge paths on any machine.
func NewEvaluator(workers int) *Evaluator {
	if workers < 1 {
		workers = 1
	}
	e := &Evaluator{
		workers: workers,
		shards:  make([]sweepScratch, workers),
	}
	e.shardTask = e.runShards
	if workers > 1 {
		e.wake = make(chan wakeToken, workers-1)
		e.done = make(chan struct{}, workers-1)
		for i := 1; i < workers; i++ {
			go func(i int) {
				// Label the pool goroutine so CPU profiles (go test
				// -cpuprofile, the -metrics-addr /debug/pprof endpoint)
				// attribute shard time to the evaluation stage per worker.
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels("stage", "eval", "worker", strconv.Itoa(i))))
				for t := range e.wake {
					t.task(t.w)
					e.done <- struct{}{}
				}
			}(i)
		}
	}
	return e
}

// Workers returns the configured shard worker count.
func (e *Evaluator) Workers() int { return e.workers }

// Close releases the pool goroutines. The Evaluator must not be used
// afterwards. Close is idempotent.
func (e *Evaluator) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.wake != nil {
		close(e.wake)
	}
}

// round runs task(0) on the caller and task(w) for w in [1, k) on k-1
// pooled goroutines, k = min(workers, items), and returns when every one
// has returned. The tasks claim the round's items off one cursor (claim)
// until it passes items, so a worker index only picks the scratch a task
// uses. A task is a function value bound once, so a round allocates
// nothing.
func (e *Evaluator) round(task func(w int), items int) {
	e.cursor.Store(0)
	k := min(e.workers, items)
	for w := 1; w < k; w++ {
		e.wake <- wakeToken{task, w}
	}
	task(0)
	for w := 1; w < k; w++ {
		<-e.done
	}
}

// claim returns the index of the round's next unclaimed item.
func (e *Evaluator) claim() int { return int(e.cursor.Add(1)) - 1 }

// sweepRound runs task over items as a round and returns the batch totals
// the workers accumulated in their shards' scratch.
func (e *Evaluator) sweepRound(task func(w int), items int) batchTotals {
	for i := range e.shards {
		e.shards[i].tot = batchTotals{}
	}
	e.round(task, items)
	var t batchTotals
	for i := range e.shards {
		t.add(e.shards[i].tot)
	}
	return t
}

// Evaluate computes the same Metrics as Graph.Evaluate, sharded over the
// pool. Results are exactly equal (including the partial TotalPath of
// disconnected graphs) for every worker count.
func (e *Evaluator) Evaluate(g *Graph) Metrics {
	total, pairs, diam, allAttached, trivial := e.gather(g)
	if trivial {
		if len(e.srcs) == 0 {
			return g.finishMetrics(0, 0, 0, allAttached && g.n <= 1)
		}
		return g.finishMetrics(total, pairs, diam, allAttached)
	}
	return e.apsp(g, total, pairs, diam, allAttached)
}

// Energy is the annealing hot path: it returns the total host-pair path
// length and whether all hosts are connected, or (0, false) for a
// disconnected graph. Connectivity comes from the sweep itself, which
// counts the reachable host-bearing pairs.
func (e *Evaluator) Energy(g *Graph) (int64, bool) {
	total, pairs, diam, allAttached, trivial := e.gather(g)
	if trivial {
		if len(e.srcs) == 0 {
			return 0, allAttached && g.n <= 1
		}
		return total, allAttached
	}
	met := e.apsp(g, total, pairs, diam, allAttached)
	if !met.Connected {
		return 0, false
	}
	return met.TotalPath, true
}

// gather collects the host-bearing switches into e.srcs and returns the
// intra-switch contribution. trivial is true when no all-pairs sweep is
// needed (zero or one host-bearing switch). allAttached is false when
// some host has no switch (which disconnects the graph).
func (e *Evaluator) gather(g *Graph) (total, pairs int64, diam int, allAttached, trivial bool) {
	e.srcs = e.srcs[:0]
	var attached int64
	for s := range g.adj {
		k := int64(g.hosts[s])
		if k > 0 {
			e.srcs = append(e.srcs, int32(s))
			attached += k
			total += k * (k - 1) // 2 * C(k,2)
			pairs += k * (k - 1) / 2
			if k >= 2 && diam < 2 {
				diam = 2
			}
		}
	}
	return total, pairs, diam, attached == int64(g.n), len(e.srcs) <= 1
}

// apsp runs the sharded bit-parallel all-pairs sweep and finishes the
// metrics. total, pairs and diam carry the intra-switch contribution from
// gather.
func (e *Evaluator) apsp(g *Graph, total, pairs int64, diam int, allAttached bool) Metrics {
	n := len(e.srcs)
	t := e.runSweep(g)
	if t.depth > 0 {
		diam = max(diam, t.depth+2)
	}
	// Every distinct reachable host-bearing pair is counted once per
	// direction across all shards; halve the ordered sums and compare the
	// ordered pair count against n(n-1).
	connected := t.reach == int64(n)*int64(n-1) && allAttached
	total += t.sum / 2
	pairs += t.wpairs / 2
	return g.finishMetrics(total, pairs, diam, connected)
}

// runSweep runs the sharded bit-parallel sweep from the sources currently
// in e.srcs and merges the per-shard totals.
func (e *Evaluator) runSweep(g *Graph) batchTotals {
	n := len(e.srcs)
	// Chunks hold at most 128 sources (two machine words); when the pool
	// is wider than the chunk count, shrink chunks so every worker gets a
	// shard.
	e.g = g
	e.chunk = min(max((n+e.workers-1)/e.workers, 1), 128)
	t := e.sweepRound(e.shardTask, (n+e.chunk-1)/e.chunk)
	e.g = nil
	return t
}

// runShards is the sweep's task: worker w claims shards until none
// remain, accumulating into its own scratch only.
func (e *Evaluator) runShards(w int) {
	sc := &e.shards[w]
	sc.grow(len(e.g.adj))
	for lo := e.claim() * e.chunk; lo < len(e.srcs); lo = e.claim() * e.chunk {
		sc.sweepTotals(e.g, e.srcs[lo:min(lo+e.chunk, len(e.srcs))])
	}
}

// EvaluateParallel computes the metrics with the given number of shard
// workers. It is the one-shot convenience over Evaluator: the pool is
// built and torn down per call, so callers on a hot path should hold an
// Evaluator instead. The result is exactly Evaluate's for any workers.
func (g *Graph) EvaluateParallel(workers int) Metrics {
	e := NewEvaluator(workers)
	defer e.Close()
	return e.Evaluate(g)
}
