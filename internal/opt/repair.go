package opt

import (
	"fmt"
	"math"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// RepairOptions configures Repair.
type RepairOptions struct {
	// Iterations is the length of the focused anneal (default 4000) —
	// deliberately short: the greedy phase does the structural work and
	// the anneal only polishes the neighbourhood of the failures.
	Iterations int
	// Seed drives all randomness; equal inputs and seeds give equal
	// outputs.
	Seed uint64
	// Workers is the evaluator shard count (see hsgraph.Evaluator).
	Workers int
	// InitialTemp overrides the warm-start temperature. Zero calibrates
	// to a tenth of the classic mean-|delta| estimate: the repair starts
	// from a near-optimal graph, so it must not random-walk away from it.
	InitialTemp float64
	// MaxNewLinks caps the spare cables installed in the greedy phase,
	// so a repair cannot out-cable the pristine deployment (ports freed
	// before the failure stay free). Values <= 0 mean no cap beyond the
	// radix budget. Callers repairing a fault.Degraded typically pass
	// its FailedLinks count.
	MaxNewLinks int
	// Eval selects the evaluation mode of the warm-start anneal (see
	// EvalMode). EvalExact (the default) pays a full sharded sweep per
	// candidate swap; EvalIncremental repairs only the distance rows the
	// swap can change, in hsgraph.IncrementalEvaluator — bit-identical
	// energies, so the repaired graph is identical move for move.
	Eval EvalMode
}

// RepairResult summarises a repair run.
type RepairResult struct {
	Before hsgraph.Metrics // metrics of the degraded input
	After  hsgraph.Metrics // metrics of the repaired graph

	HostsReattached int // detached hosts re-homed onto surviving switches
	LinksAdded      int // spare cables installed across freed ports
	Accepted        int // anneal moves kept
	Proposed        int // anneal moves evaluated
}

// Repair re-optimises a degraded host-switch graph around its failures
// under the radix budget, without resurrecting failed components: switches
// listed in down keep zero links and zero hosts. The repair has three
// phases — reattach stranded hosts to surviving free ports, greedily
// recable freed ports (connecting the most distant port pairs first, which
// also reconnects split components), then a short warm-start anneal whose
// swap moves are restricted to edges touching the affected switches. The
// input graph is not modified.
func Repair(degraded *hsgraph.Graph, down []int32, o RepairOptions) (*hsgraph.Graph, RepairResult, error) {
	if degraded == nil {
		return nil, RepairResult{}, fmt.Errorf("opt: nil degraded graph")
	}
	switch o.Eval {
	case EvalExact, EvalIncremental:
	default:
		return nil, RepairResult{}, fmt.Errorf("opt: Repair evaluation mode %v not supported (want exact or incremental)", o.Eval)
	}
	if o.Iterations == 0 {
		o.Iterations = 4000
	}
	g := degraded.Clone()
	m := g.Switches()
	isDown := make([]bool, m)
	for _, s := range down {
		if s < 0 || int(s) >= m {
			return nil, RepairResult{}, fmt.Errorf("opt: failed switch %d out of range", s)
		}
		isDown[s] = true
	}
	rnd := rng.New(o.Seed)
	ev := hsgraph.NewEvaluator(o.Workers)
	defer ev.Close()
	res := RepairResult{Before: ev.Evaluate(degraded)}

	// The anneal later focuses on switches whose neighbourhood the repair
	// touched; start from the switches that lost capacity.
	affected := make([]bool, m)
	markAffected := func(s int) {
		if !affected[s] {
			affected[s] = true
		}
	}
	for s := 0; s < m; s++ {
		if isDown[s] {
			continue
		}
		if g.Degree(s) < degraded.Radix() {
			markAffected(s) // has a freed port: lost a link or a host
		}
	}

	// Phase 1: reattach stranded hosts, spreading them across the
	// surviving switches with the most free ports.
	for h := 0; h < g.Order(); h++ {
		if g.SwitchOf(h) != -1 {
			continue
		}
		best, bestFree := -1, 0
		for s := 0; s < m; s++ {
			if isDown[s] {
				continue
			}
			if free := g.Radix() - g.Degree(s); free > bestFree {
				best, bestFree = s, free
			}
		}
		if best == -1 {
			break // no ports anywhere; remaining hosts stay stranded
		}
		if err := g.AttachHost(h, best); err != nil {
			return nil, RepairResult{}, err
		}
		markAffected(best)
		res.HostsReattached++
	}

	// Phase 2: greedy recabling. Repeatedly connect the two free-port
	// switches at maximal switch-graph distance (disconnected pairs count
	// as infinitely far), so spare cables bridge components first and
	// shortcut the longest detours second.
	dist := make([]int32, m)
	queue := make([]int32, 0, m)
	for o.MaxNewLinks <= 0 || res.LinksAdded < o.MaxNewLinks {
		free := freePortSwitches(g, isDown)
		a, b := farthestPair(g, free, dist, queue)
		if a == -1 {
			break
		}
		if err := g.Connect(a, b); err != nil {
			return nil, RepairResult{}, err
		}
		markAffected(a)
		markAffected(b)
		res.LinksAdded++
	}

	// Phase 3: focused warm-start anneal. Swap moves must touch at least
	// one affected switch; the rest of the (near-optimal) graph is left
	// alone. Temperature starts low — this is a polish, not a search.
	//
	// Candidate energies come from the mode-selected evaluator. The
	// incremental evaluator returns bit-identical energies to the exact
	// sharded sweep, so the accept decisions, RNG draw pattern and
	// repaired graph are identical across modes — only the cost per
	// candidate changes. Rejected candidates peek without committing
	// distance rows, so their rollback is free.
	var inc *hsgraph.IncrementalEvaluator
	if o.Eval != EvalExact {
		inc = hsgraph.NewIncrementalEvaluator(o.Workers)
	}
	candEnergy := func() (int64, bool) {
		if inc == nil {
			return ev.Energy(g)
		}
		e, connected, ok := inc.PeekEnergy(g)
		if !ok {
			e, connected = inc.Energy(g)
		}
		return e, connected
	}
	var energy int64
	var connected bool
	if inc == nil {
		energy, connected = ev.Energy(g)
	} else {
		energy, connected = inc.Energy(g)
	}
	if !connected {
		energy = math.MaxInt64
	}
	best := g.Clone()
	bestEnergy := energy

	temp := o.InitialTemp
	if temp == 0 {
		temp = calibrateTemp(g, SwapOnly, 1, rnd.Split(), ev, nil) / 10
	}
	if temp <= 0 {
		temp = 1
	}
	finalTemp := temp / 50
	cool := math.Pow(finalTemp/temp, 1/math.Max(1, float64(o.Iterations-1)))

	for iter := 0; iter < o.Iterations; iter++ {
		u, ok := tryFocusedSwap(g, rnd, affected)
		if !ok {
			continue
		}
		res.Proposed++
		cand, connected := candEnergy()
		accept := false
		if connected {
			delta := cand - energy
			if energy == math.MaxInt64 {
				accept = true // any connected state beats disconnection
			} else if delta <= 0 {
				accept = true
			} else {
				accept = rnd.Float64() < math.Exp(-float64(delta)/temp)
			}
		}
		if accept {
			if inc != nil {
				inc.Energy(g) // commit the peeked state into the cache
			}
			energy = cand
			res.Accepted++
			if energy < bestEnergy {
				bestEnergy = energy
				best = g.Clone()
			}
		} else {
			u()
		}
		temp *= cool
	}
	res.After = ev.Evaluate(best)
	return best, res, nil
}

// freePortSwitches lists surviving switches with at least one free port.
func freePortSwitches(g *hsgraph.Graph, isDown []bool) []int {
	var free []int
	for s := 0; s < g.Switches(); s++ {
		if !isDown[s] && g.Degree(s) < g.Radix() {
			free = append(free, s)
		}
	}
	return free
}

// farthestPair returns the non-adjacent pair of free-port switches at
// maximal switch-graph distance, preferring disconnected pairs. Returns
// (-1, -1) when no connectable pair remains.
func farthestPair(g *hsgraph.Graph, free []int, dist []int32, queue []int32) (int, int) {
	bestA, bestB := -1, -1
	bestD := int32(-2) // any valid pair beats this; disconnected pairs score MaxInt32
	for i, a := range free {
		g.SwitchBFS(a, dist, queue)
		for _, b := range free[i+1:] {
			if g.HasEdge(a, b) {
				continue
			}
			d := dist[b]
			if d < 0 {
				d = math.MaxInt32
			}
			if d > bestD {
				bestA, bestB, bestD = a, b, d
			}
		}
	}
	return bestA, bestB
}

// tryFocusedSwap is trySwap with the first edge restricted (by rejection
// sampling) to edges incident to an affected switch, so the anneal only
// rewires the failure neighbourhood.
func tryFocusedSwap(g *hsgraph.Graph, rnd *rng.Rand, affected []bool) (undo, bool) {
	ne := g.NumEdges()
	if ne < 2 {
		return nil, false
	}
	for attempt := 0; attempt < 16; attempt++ {
		a, b := g.Edge(rnd.Intn(ne))
		if !affected[a] && !affected[b] {
			continue
		}
		c, d := g.Edge(rnd.Intn(ne))
		if rnd.Intn(2) == 0 {
			c, d = d, c
		}
		if a == c || a == d || b == c || b == d {
			continue
		}
		if g.HasEdge(a, d) || g.HasEdge(b, c) {
			continue
		}
		mustDo(g.Disconnect(a, b))
		mustDo(g.Disconnect(c, d))
		mustDo(g.Connect(a, d))
		mustDo(g.Connect(b, c))
		return func() {
			mustDo(g.Disconnect(a, d))
			mustDo(g.Disconnect(b, c))
			mustDo(g.Connect(a, b))
			mustDo(g.Connect(c, d))
		}, true
	}
	return nil, false
}
