package hsgraph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// IncrementalEvaluator computes the same metrics as Evaluator but caches
// the full per-source BFS state of the last graph it evaluated, so that a
// re-evaluation after a local mutation (an annealing swap or swing touches
// 1-2 edges) re-sweeps only the sources whose BFS trees can have changed.
//
// The evaluator arms the graph's edge-mutation log; between evaluations it
// derives the net edge diff from the log, compares the cached host counts
// against the graph's, and flags a source s dirty when
//
//   - a net-removed edge {a,b} was tight from s (|d_s(a)-d_s(b)| == 1 —
//     the necessary condition for the edge to lie on any shortest path
//     out of s) and the far endpoint has no alternate shortest
//     predecessor surviving in both the cached and the current graph, or
//   - a net-added edge {a,b} was slack from s (|d_s(a)-d_s(b)| >= 2, the
//     necessary condition for the edge to create a shorter path), or
//     joins s's component to switches s could not reach.
//
// Net diffing makes rollbacks free: a rejected move's undo cancels the
// move's own entries, so the next sync sees an empty diff and touches
// nothing. Only the flagged rows are re-swept (bit-parallel, 64 sources
// per word, sharded over workers when the dirty set is large); host-count
// changes adjust the unflagged rows' cached aggregates in O(m) without any
// BFS. When the dirty set exceeds fallbackNum/fallbackDen of the sources,
// a full rebuild is cheaper and runs instead. Every cached quantity is an
// integer derived per row, so results are bit-identical to Evaluator's for
// every worker count and every mutation history.
//
// An IncrementalEvaluator is not safe for concurrent use, and at most one
// may be attached to a graph at a time (attaching a second one invalidates
// the first, which then falls back to a full rebuild). Memory cost is one
// m x m distance matrix of int16, so m is capped at MaxIncrementalSwitches.
//
// Orbit mode (NewOrbitIncrementalEvaluator with sym >= 2) caches and
// sweeps only the m/sym orbit-representative rows of a sym-symmetric
// graph and scales the fold-up by the orbit size, for bit-identical
// results at ~sym× less sweep work. The attached graph must stay in the
// symmetric subspace: attach verifies the whole graph, every sync/peek
// verifies the pending mutations, and a violation panics — a quotient
// evaluation of an asymmetric graph would silently mis-evaluate, so the
// contract is fail-loud (use opt's symmetric move operators, which cannot
// leave the subspace).
type IncrementalEvaluator struct {
	workers int
	sym     int // symmetry order; 1 = generic mode
	q       int // representative rows cached: m/sym (== m when sym == 1)

	g      *Graph
	epoch  uint64  // g.opEpoch this evaluator armed
	m      int     // switch count of the cached graph
	dist   []int16 // m*m distance matrix, row-major; -1 = unreachable
	rowSum []int64 // rowSum[s]  = sum over reachable t!=s of k_t*(d(s,t)+2)
	rowW   []int64 // rowW[s]    = sum over reachable t!=s of k_t
	rowRch []int64 // rowRch[s]  = #{t != s : k_t > 0, reachable}
	hosts  []int32 // cached host counts at last sync
	valid  bool

	// Sync scratch, reused across calls.
	netKeys   [][2]int32 // net edge diff keys (insertion order)
	netDelta  []int32    // +1 net-added, -1 net-removed, 0 cancelled
	dirty     []int32
	dirtyAt   []uint32 // dirtyAt[s] == dirtyGen marks s dirty
	dirtyGen  uint32
	queue     []int32
	sweep     []sweepScratch // per-worker bit-BFS scratch
	cursor    atomic.Int64
	keys      []dirtyKey // active net-diff keys, hoisted for the fused scan
	negRow    []int16    // all -1, the row-prefill template
	hostDelta []int32    // switches with pending host-count changes (peek scratch)

	// Peek stamp: the pending state the last peek derived ie.dirty for, so
	// committing that very state (an accepted move) re-sweeps the stamped
	// dirty list instead of re-deriving it. Any later markDirty clears it.
	peekHosts []int32  // host counts at stamp time
	peekOps   []edgeOp // compacted op log at stamp time
	peekValid bool     // ie.dirty is the dirty set of the stamped state

	stats IncStats
}

// IncStats counts the incremental evaluator's internal decisions since it
// was created — the introspection feed of the anneal telemetry
// (opt.AnnealSample.Eval, orpd's orpd_inc_* counters). All counters are
// cumulative; consumers diff successive snapshots for rates. Reads are
// only consistent from the goroutine driving the evaluator (which is the
// evaluator's general concurrency contract anyway).
type IncStats struct {
	// Syncs counts cache commits that had pending work (an op log or a
	// host-count change); no-op syncs after a clean rollback are free and
	// uncounted.
	Syncs int64
	// FullRebuilds counts commits that fell back to rebuilding every row
	// because more than fallbackNum/fallbackDen of the sources were dirty.
	FullRebuilds int64
	// StoredPeekReuses counts commits that reused the dirty list stamped
	// by a peek of the exact pending state (an accepted move) instead of
	// re-deriving it from the op log; the dirty rows are still re-swept.
	StoredPeekReuses int64
	// DirtySources accumulates the dirty-set sizes seen at commits;
	// DirtySources/float64(Syncs*m) is the mean dirty-source fraction.
	DirtySources int64
	// SweptSources accumulates rows actually swept into the cache,
	// including attach/rebuild sweeps — the work the cache could not
	// avoid.
	SweptSources int64
	// Peeks counts PeekEnergy sweeps answered from scratch space.
	Peeks int64
}

// Stats returns the evaluator's cumulative decision counters.
func (ie *IncrementalEvaluator) Stats() IncStats { return ie.stats }

// MaxIncrementalSwitches bounds the cached distance matrix (int16
// distances, m^2 entries). 20000 switches cost ~800 MB; beyond that the
// incremental cache is the wrong tool and the constructor-free fallback
// (plain Evaluator) should be used. Exported so callers selecting an
// evaluation mode can refuse oversized instances up front instead of
// hitting the attach-time panic.
const MaxIncrementalSwitches = 20000

// Fallback threshold: when more than fallbackNum/fallbackDen of all
// sources are dirty, a full rebuild re-sweeps everything in one pass
// instead of patching rows (the batched sweep is then strictly cheaper).
const (
	fallbackNum = 3
	fallbackDen = 4
)

// NewIncrementalEvaluator returns an evaluator with the given number of
// sweep workers (values below 1 mean 1). Workers only affect throughput,
// never results.
func NewIncrementalEvaluator(workers int) *IncrementalEvaluator {
	return NewOrbitIncrementalEvaluator(workers, 1)
}

// NewOrbitIncrementalEvaluator returns an evaluator in orbit mode: it is
// restricted to graphs closed under the cyclic group action of order sym
// (see VerifySymmetric) and caches only the orbit-representative distance
// rows, ~sym× less sweep work and memory for the same bit-identical
// results. sym values below 2 mean the generic evaluator. Mutating the
// attached graph out of the symmetric subspace panics at the next
// sync/peek (see the type comment).
func NewOrbitIncrementalEvaluator(workers, sym int) *IncrementalEvaluator {
	if workers < 1 {
		workers = 1
	}
	if sym < 1 {
		sym = 1
	}
	return &IncrementalEvaluator{
		workers: workers,
		sym:     sym,
		sweep:   make([]sweepScratch, workers),
	}
}

// Workers returns the configured sweep worker count.
func (ie *IncrementalEvaluator) Workers() int { return ie.workers }

// Symmetry returns the group order the evaluator quotients by (1 in
// generic mode).
func (ie *IncrementalEvaluator) Symmetry() int { return ie.sym }

// row returns the cached distance row of source s.
func (ie *IncrementalEvaluator) row(s int) []int16 {
	return ie.dist[s*ie.m : (s+1)*ie.m]
}

// attach arms the op log on g and rebuilds the full cache.
func (ie *IncrementalEvaluator) attach(g *Graph) {
	m := len(g.adj)
	if m > MaxIncrementalSwitches {
		panic(fmt.Sprintf("hsgraph: IncrementalEvaluator supports at most %d switches, got %d", MaxIncrementalSwitches, m))
	}
	if ie.sym > 1 {
		if err := VerifySymmetric(g, ie.sym); err != nil {
			panic("hsgraph: orbit-mode IncrementalEvaluator attached to an asymmetric graph: " + err.Error())
		}
	}
	ie.g = g
	ie.epoch = g.startOpLog()
	ie.m = m
	ie.q = m / ie.sym
	q := ie.q
	if cap(ie.dist) < q*m {
		ie.dist = make([]int16, q*m)
	}
	ie.dist = ie.dist[:q*m]
	ie.rowSum = growI64(ie.rowSum, q)
	ie.rowW = growI64(ie.rowW, q)
	ie.rowRch = growI64(ie.rowRch, q)
	ie.hosts = append(ie.hosts[:0], g.hosts...)
	if cap(ie.dirtyAt) < q {
		ie.dirtyAt = make([]uint32, q)
		ie.dirtyGen = 0
	}
	ie.dirtyAt = ie.dirtyAt[:q]
	if cap(ie.negRow) < m {
		ie.negRow = make([]int16, m)
		for i := range ie.negRow {
			ie.negRow[i] = -1
		}
	}
	ie.negRow = ie.negRow[:m]
	ie.peekValid = false
	ie.rebuildAll()
	ie.valid = true
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// synced reports whether the cache tracks g's current op-log stream.
func (ie *IncrementalEvaluator) synced(g *Graph) bool {
	return ie.valid && ie.g == g && g.opLogOn && g.opEpoch == ie.epoch &&
		!g.opOverflow && ie.m == len(g.adj)
}

// sync brings the cache up to date with g, consuming the pending op log.
func (ie *IncrementalEvaluator) sync(g *Graph) {
	if !ie.synced(g) {
		ie.attach(g)
		return
	}
	if len(g.oplog) == 0 && !ie.hostsChanged(g) {
		return
	}
	ie.stats.Syncs++
	if ie.peekApplicable(g) {
		// The stamped peek already derived this pending state's dirty set
		// (and checked and compacted its op log); re-sweep that list.
		ie.stats.StoredPeekReuses++
	} else {
		ie.netDiff(g.oplog)
		ie.checkSymmetryPending(g)
		ie.markDirty()
	}
	ie.peekValid = false
	g.oplog = g.oplog[:0]
	ie.stats.DirtySources += int64(len(ie.dirty))
	if len(ie.dirty)*fallbackDen > ie.q*fallbackNum {
		ie.stats.FullRebuilds++
		ie.hosts = append(ie.hosts[:0], g.hosts...)
		ie.rebuildAll()
		return
	}
	ie.stats.SweptSources += int64(len(ie.dirty))
	ie.sweepSources(ie.dirty, true)
	ie.patchHostDeltas(g)
	ie.hosts = append(ie.hosts[:0], g.hosts...)
}

// patchHostDeltas folds host-count changes into the rows that were not
// re-swept: for those rows the cached distances are exactly the current
// ones, so moving delta hosts on switch b shifts rowSum by delta*(d(s,b)+2)
// and rowW by delta, and a 0 <-> >0 transition of k_b shifts rowRch by one.
// Re-swept rows (dirtyAt at the current generation) already aggregated
// against the current host counts. In orbit mode only the representative
// rows exist; b still ranges over all switches, since a representative's
// row aggregates every target.
func (ie *IncrementalEvaluator) patchHostDeltas(g *Graph) {
	for b := 0; b < ie.m; b++ {
		delta := int64(g.hosts[b] - ie.hosts[b])
		if delta == 0 {
			continue
		}
		wasBearing, isBearing := ie.hosts[b] > 0, g.hosts[b] > 0
		for s := 0; s < ie.q; s++ {
			if s == b || ie.dirtyAt[s] == ie.dirtyGen {
				continue
			}
			d := ie.row(s)[b]
			if d < 0 {
				continue
			}
			ie.rowSum[s] += delta * int64(d+2)
			ie.rowW[s] += delta
			if wasBearing != isBearing {
				if isBearing {
					ie.rowRch[s]++
				} else {
					ie.rowRch[s]--
				}
			}
		}
	}
}

// checkSymmetryPending verifies, in orbit mode, that the pending
// mutations keep the graph inside the symmetric subspace: host counts
// must stay constant on every orbit and the net edge diff must be closed
// under the group action with matching deltas (each changed edge changes
// together with its sym-1 images, in the same direction). Requires
// ie.netDiff to have just run on g.oplog. A violation panics: the
// quotient cache cannot represent the asymmetric graph, and evaluating it
// anyway would silently return wrong energies.
func (ie *IncrementalEvaluator) checkSymmetryPending(g *Graph) {
	if ie.sym <= 1 {
		return
	}
	m, q := int32(ie.m), int32(ie.q)
	for s := int32(0); s < m; s++ {
		img := (s + q) % m
		if g.hosts[s] != g.hosts[img] {
			panic(fmt.Sprintf("hsgraph: orbit-mode IncrementalEvaluator: host move broke the order-%d symmetry: switch %d carries %d hosts but its image %d carries %d",
				ie.sym, s, g.hosts[s], img, g.hosts[img]))
		}
	}
	for i, key := range ie.netKeys {
		if ie.netDelta[i] == 0 {
			continue
		}
		img := edgeKey((key[0]+q)%m, (key[1]+q)%m)
		found := false
		for j, k2 := range ie.netKeys {
			if k2 == img {
				found = ie.netDelta[j] == ie.netDelta[i]
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("hsgraph: orbit-mode IncrementalEvaluator: edge mutation broke the order-%d symmetry: net change %+d on {%d,%d} has no matching change on its image {%d,%d}",
				ie.sym, ie.netDelta[i], key[0], key[1], img[0], img[1]))
		}
	}
}

// hostsChanged reports whether g's host counts differ from the cache.
func (ie *IncrementalEvaluator) hostsChanged(g *Graph) bool {
	for s, k := range g.hosts {
		if ie.hosts[s] != k {
			return true
		}
	}
	return false
}

// netDiff reduces the pending op log to the net edge diff: edges whose
// add/remove counts do not cancel. Intermediate states are irrelevant —
// the cache only ever compares its own snapshot against the final graph —
// so a rejected move's do/undo pairs vanish here.
func (ie *IncrementalEvaluator) netDiff(ops []edgeOp) {
	ie.netKeys = ie.netKeys[:0]
	ie.netDelta = ie.netDelta[:0]
	for _, op := range ops {
		key := [2]int32{op.a, op.b}
		found := -1
		for i, k := range ie.netKeys {
			if k == key {
				found = i
				break
			}
		}
		if found < 0 {
			found = len(ie.netKeys)
			ie.netKeys = append(ie.netKeys, key)
			ie.netDelta = append(ie.netDelta, 0)
		}
		if op.add {
			ie.netDelta[found]++
		} else {
			ie.netDelta[found]--
		}
	}
}

// compactOpLog rewrites the pending op log to its net diff (one entry per
// surviving edge change). Rejected moves append do/undo pairs that only a
// commit would clear; peeks between commits compact them away so repeated
// peeks never rescan cancelled history, and the log stays far from its
// overflow cap. Requires ie.netDiff to have just run on g.oplog.
func (ie *IncrementalEvaluator) compactOpLog(g *Graph) {
	if len(g.oplog) == len(ie.netKeys) {
		return // nothing cancelled
	}
	n := 0
	for i, k := range ie.netKeys {
		if ie.netDelta[i] == 0 {
			continue
		}
		g.oplog[n] = edgeOp{add: ie.netDelta[i] > 0, a: k[0], b: k[1]}
		n++
	}
	g.oplog = g.oplog[:n]
}

// markDirty flags every source whose cached BFS row can differ on g, given
// the net edge diff, into ie.dirty. Soundness: a source flagged by no net
// operation keeps its exact row — apply the net removals then the net
// additions in any order; each unflagging condition, evaluated against the
// cached distances, certifies that the operation leaves the row unchanged,
// so the cached distances remain valid for judging the next one.
func (ie *IncrementalEvaluator) markDirty() {
	ie.peekValid = false
	ie.dirty = ie.dirty[:0]
	ie.dirtyGen++
	if ie.dirtyGen == 0 { // wrapped: marks are stale, reset
		for i := range ie.dirtyAt {
			ie.dirtyAt[i] = 0
		}
		ie.dirtyGen = 1
	}
	ie.keys = ie.keys[:0]
	for i, key := range ie.netKeys {
		if ie.netDelta[i] == 0 {
			continue
		}
		n := len(ie.keys)
		if n < cap(ie.keys) {
			ie.keys = ie.keys[:n+1] // reuse the element's alt-slice capacity
		} else {
			ie.keys = append(ie.keys, dirtyKey{})
		}
		k := &ie.keys[n]
		k.a, k.b = key[0], key[1]
		k.removed = ie.netDelta[i] < 0
		k.altA, k.altB = k.altA[:0], k.altB[:0]
		if k.removed {
			// Hoist the net-added edges incident to either endpoint: the
			// alternate-predecessor scan below must skip them, and they are
			// almost always absent, turning the skip into a nil check.
			for j, k2 := range ie.netKeys {
				if ie.netDelta[j] <= 0 {
					continue
				}
				switch key[0] {
				case k2[0]:
					k.altA = append(k.altA, k2[1])
				case k2[1]:
					k.altA = append(k.altA, k2[0])
				}
				switch key[1] {
				case k2[0]:
					k.altB = append(k.altB, k2[1])
				case k2[1]:
					k.altB = append(k.altB, k2[0])
				}
			}
		}
	}
	if len(ie.keys) == 0 {
		return
	}
	// One fused pass over the rows: each 800-byte-ish row is pulled into
	// cache once and tested against every active key, instead of once per
	// key. The dirty list comes out in ascending source order. In orbit
	// mode only representative rows exist (and the net diff contains every
	// image of a changed orbit edge, so a representative affected by any
	// image is flagged).
	for s := 0; s < ie.q; s++ {
		row := ie.row(s)
		for ki := range ie.keys {
			k := &ie.keys[ki]
			da, db := row[k.a], row[k.b]
			var affected bool
			switch {
			case da < 0 && db < 0:
				// Both unreachable from s: neither removing nor adding the
				// edge can touch s's component.
			case (da < 0) != (db < 0):
				// Mixed reachability: impossible for a removed (existing)
				// edge unless the cache is inconsistent; for an added edge
				// it joins a new component. Conservatively dirty.
				affected = true
			case k.removed:
				// The edge lay on a shortest path out of s only if it was
				// tight (distances differ by one, oriented near -> far). Even
				// then the row survives when far has another predecessor at
				// the same depth: every shortest path through the removed
				// edge enters far over it and can be re-routed through the
				// alternate entry at equal length. The alternate edge must
				// exist in both the cached and the current graph — a
				// neighbor in g.adj that the net diff did not add — so the
				// splice is valid against the cached distances.
				if da-db == 1 || db-da == 1 {
					far, dFar, added := k.a, da, k.altA
					if db > da {
						far, dFar, added = k.b, db, k.altB
					}
					affected = true
					if len(added) == 0 {
						for _, u := range ie.g.adj[far] {
							if row[u] == dFar-1 {
								affected = false
								break
							}
						}
					} else {
						for _, u := range ie.g.adj[far] {
							if row[u] == dFar-1 && !containsInt32(added, u) {
								affected = false
								break
							}
						}
					}
				}
			default:
				affected = da-db >= 2 || db-da >= 2
			}
			if affected {
				ie.dirtyAt[s] = ie.dirtyGen
				ie.dirty = append(ie.dirty, int32(s))
				break
			}
		}
	}
}

// dirtyKey is a net-diff entry prepared for markDirty's fused row scan.
type dirtyKey struct {
	a, b    int32
	removed bool
	altA    []int32 // net-added neighbors of a, skipped as alternates
	altB    []int32 // net-added neighbors of b
}

func containsInt32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// rebuildAll re-sweeps every cached source (every switch, or every orbit
// representative in orbit mode). Rows are assigned to workers in
// 64-source batches via an atomic cursor; each row is written by exactly
// one worker and all aggregates are per-row integers, so the result does
// not depend on scheduling.
func (ie *IncrementalEvaluator) rebuildAll() {
	ie.stats.SweptSources += int64(ie.q)
	if cap(ie.queue) < ie.m {
		ie.queue = make([]int32, 0, ie.m)
	}
	all := ie.queue[:0]
	for s := 0; s < ie.q; s++ {
		all = append(all, int32(s))
	}
	ie.sweepSources(all, true)
	ie.queue = all[:0]
}

// sweepSources sweeps the given sources on the current graph in lane-width
// batches sharded over the workers. With rows it recomputes their cached
// distance rows and aggregates; without, it writes nothing and returns the
// batch totals (the peek path).
func (ie *IncrementalEvaluator) sweepSources(srcs []int32, rows bool) batchTotals {
	var t batchTotals
	if len(srcs) == 0 {
		return t
	}
	stride := sweepStride(len(srcs))
	workers := min(ie.workers, (len(srcs)+stride-1)/stride)
	ie.cursor.Store(0)
	for w := range ie.sweep[:workers] {
		ie.sweep[w].tot = batchTotals{}
	}
	if workers <= 1 {
		ie.runBatches(&ie.sweep[0], srcs, stride, rows)
	} else {
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ie.runBatches(&ie.sweep[w], srcs, stride, rows)
			}(w)
		}
		ie.runBatches(&ie.sweep[0], srcs, stride, rows)
		wg.Wait()
	}
	for w := range ie.sweep[:workers] {
		t.add(ie.sweep[w].tot)
	}
	return t
}

// sweepStride picks the lane width of a sweep: two-word 128-lane batches
// once a single 64-lane batch cannot cover the sources, halving the number
// of graph traversals for the common 65..128-source dirty sets.
func sweepStride(n int) int {
	if n > 64 {
		return 128
	}
	return 64
}

func (ie *IncrementalEvaluator) runBatches(sc *sweepScratch, srcs []int32, stride int, rows bool) {
	sc.grow(ie.m)
	for {
		idx := int(ie.cursor.Add(1)) - 1
		lo := idx * stride
		if lo >= len(srcs) {
			return
		}
		batch := srcs[lo:min(lo+stride, len(srcs))]
		switch {
		case !rows:
			sc.sweepTotals(ie.g, batch)
		case len(batch) <= 64:
			ie.sweepRows(sc, batch)
		default:
			ie.sweepRowsWide(sc, batch)
		}
	}
}

// sweepRows runs one bit-parallel BFS with the batch sources in the word
// lanes, writing each source's full distance row. The row aggregates are
// accumulated per lane during the sweep — the same integer additions a
// post-hoc pass over the row would do, just without re-reading it.
func (ie *IncrementalEvaluator) sweepRows(sc *sweepScratch, batch []int32) {
	g := ie.g
	m := ie.m
	visited := sc.visited[:m]
	front := sc.front[:m]
	next := sc.next[:m]
	for i := range visited {
		visited[i] = 0
		front[i] = 0
	}
	var rows [64][]int16
	var sumKD, w, prevW, rch [64]int64
	for bit, s := range batch {
		row := ie.row(int(s))
		copy(row, ie.negRow)
		row[s] = 0
		rows[bit] = row
		visited[s] |= 1 << uint(bit)
		front[s] |= 1 << uint(bit)
	}
	for level := int16(1); ; level++ {
		for i := range next {
			next[i] = 0
		}
		active := false
		for v := 0; v < m; v++ {
			fv := front[v]
			if fv == 0 {
				continue
			}
			// Unconditionally OR the frontier into next: the settle pass
			// below masks off already-visited bits, so pre-filtering here
			// would only add a visited load and a branch per edge word.
			for _, u := range g.adj[v] {
				next[u] |= fv
			}
		}
		for v := 0; v < m; v++ {
			nv := next[v] &^ visited[v]
			if nv == 0 {
				next[v] = 0
				continue
			}
			next[v] = nv
			visited[v] |= nv
			active = true
			kv := int64(g.hosts[v])
			for mask := nv; mask != 0; mask &= mask - 1 {
				bit := trailingZeros(mask)
				rows[bit][v] = level
				if kv > 0 {
					w[bit] += kv
					rch[bit]++
				}
			}
		}
		if !active {
			front, next = next, front
			break
		}
		// Fold this level's newly-reached host weight into the distance
		// sum once per lane instead of once per visit: the lanes whose
		// weight moved gained exactly level * (w - prevW).
		for bit := range batch {
			if d := w[bit] - prevW[bit]; d != 0 {
				sumKD[bit] += int64(level) * d
				prevW[bit] = w[bit]
			}
		}
		front, next = next, front
	}
	for bit, s := range batch {
		ie.rowSum[s] = sumKD[bit] + 2*w[bit]
		ie.rowW[s] = w[bit]
		ie.rowRch[s] = rch[bit]
	}
}

// sweepRowsWide is sweepRows over two mask words: up to 128 sources share
// one graph traversal, with lane i of the batch living in word i>>6, bit
// i&63 of the interleaved visited/front/next arrays. Each source's row and
// aggregates come out as the identical integers sweepRows would produce.
func (ie *IncrementalEvaluator) sweepRowsWide(sc *sweepScratch, batch []int32) {
	g := ie.g
	m := ie.m
	visited := sc.visited[:2*m]
	front := sc.front[:2*m]
	next := sc.next[:2*m]
	for i := range visited {
		visited[i] = 0
		front[i] = 0
	}
	var rows [128][]int16
	var sumKD, w, prevW, rch [128]int64
	for i, s := range batch {
		row := ie.row(int(s))
		copy(row, ie.negRow)
		row[s] = 0
		rows[i] = row
		j := 2*int(s) + i>>6
		visited[j] |= 1 << uint(i&63)
		front[j] |= 1 << uint(i&63)
	}
	for level := int16(1); ; level++ {
		for i := range next {
			next[i] = 0
		}
		active := false
		for v := 0; v < m; v++ {
			i0 := 2 * v
			f0, f1 := front[i0], front[i0+1]
			if f0|f1 == 0 {
				continue
			}
			// Unconditional OR; the settle pass masks visited bits (see the
			// narrow variant).
			for _, u := range g.adj[v] {
				j0 := 2 * int(u)
				next[j0] |= f0
				next[j0+1] |= f1
			}
		}
		for v := 0; v < m; v++ {
			i0 := 2 * v
			nv0 := next[i0] &^ visited[i0]
			nv1 := next[i0+1] &^ visited[i0+1]
			if nv0|nv1 == 0 {
				next[i0], next[i0+1] = 0, 0
				continue
			}
			next[i0], next[i0+1] = nv0, nv1
			visited[i0] |= nv0
			visited[i0+1] |= nv1
			active = true
			kv := int64(g.hosts[v])
			for mask := nv0; mask != 0; mask &= mask - 1 {
				lane := trailingZeros(mask)
				rows[lane][v] = level
				if kv > 0 {
					w[lane] += kv
					rch[lane]++
				}
			}
			for mask := nv1; mask != 0; mask &= mask - 1 {
				lane := 64 + trailingZeros(mask)
				rows[lane][v] = level
				if kv > 0 {
					w[lane] += kv
					rch[lane]++
				}
			}
		}
		if !active {
			front, next = next, front
			break
		}
		// Per-level weight-delta fold; see sweepRows.
		for lane := range batch {
			if d := w[lane] - prevW[lane]; d != 0 {
				sumKD[lane] += int64(level) * d
				prevW[lane] = w[lane]
			}
		}
		front, next = next, front
	}
	for i, s := range batch {
		ie.rowSum[s] = sumKD[i] + 2*w[i]
		ie.rowW[s] = w[i]
		ie.rowRch[s] = rch[i]
	}
}

// gatherTotals folds the cached rows into the graph-level quantities:
// intra-switch contributions plus the ordered inter-switch sums (halved by
// the callers). Mirrors Evaluator.gather + apsp exactly. In orbit mode
// the ordered sums fold representative rows only and scale by the orbit
// size — each image source's row aggregates equal its representative's,
// so the scaled integers are bit-identical to the generic fold.
func (ie *IncrementalEvaluator) gatherTotals(g *Graph) (intraTotal, intraPairs, ordered, orderedW, orderedReach, attached int64, bearing int) {
	for s := 0; s < ie.m; s++ {
		k := int64(g.hosts[s])
		if k == 0 {
			continue
		}
		bearing++
		attached += k
		intraTotal += k * (k - 1)
		intraPairs += k * (k - 1) / 2
		if s < ie.q {
			ordered += k * ie.rowSum[s]
			orderedW += k * ie.rowW[s]
			orderedReach += ie.rowRch[s]
		}
	}
	if ie.sym > 1 {
		sym := int64(ie.sym)
		ordered *= sym
		orderedW *= sym
		orderedReach *= sym
	}
	return
}

// Energy returns the total host-pair path length and whether all hosts
// are connected — bit-identical to Evaluator.Energy, after re-sweeping
// only the dirty sources.
func (ie *IncrementalEvaluator) Energy(g *Graph) (int64, bool) {
	ie.sync(g)
	intraTotal, _, ordered, _, orderedReach, attached, bearing := ie.gatherTotals(g)
	allAttached := attached == int64(g.n)
	switch {
	case bearing == 0:
		return 0, allAttached && g.n <= 1
	case bearing == 1:
		return intraTotal, allAttached
	}
	connected := allAttached && orderedReach == int64(bearing)*int64(bearing-1)
	if !connected {
		return 0, false
	}
	return intraTotal + ordered/2, true
}

// PeekEnergy computes exactly what Energy would return for g — the same
// integers, bit for bit — without committing anything: the op log stays
// pending and nothing cached is written. The dirty sources are swept for
// their totals only, with no distance rows and no per-source aggregates,
// so a rejected candidate move costs ceil(dirty/128) totals sweeps and
// its rollback is free. Committing the peeked state (an accepted move)
// reuses the peek's dirty list and re-sweeps those rows. ok is false when
// the cache is not attached to g; the caller then falls back to Energy.
func (ie *IncrementalEvaluator) PeekEnergy(g *Graph) (energy int64, connected, ok bool) {
	if !ie.synced(g) {
		return 0, false, false
	}
	ie.stats.Peeks++
	ie.netDiff(g.oplog)
	ie.checkSymmetryPending(g)
	ie.compactOpLog(g)
	ie.markDirty()
	dirty := ie.sweepSources(ie.dirty, false)
	ie.stampPeek(g)
	ie.hostDelta = ie.hostDelta[:0]
	for b := 0; b < ie.m; b++ {
		if g.hosts[b] != ie.hosts[b] {
			ie.hostDelta = append(ie.hostDelta, int32(b))
		}
	}
	var intraTotal, attached int64
	ordered, orderedReach := dirty.sum, dirty.reach
	bearing := 0
	for s := 0; s < ie.m; s++ {
		k := int64(g.hosts[s])
		if k == 0 {
			continue
		}
		bearing++
		attached += k
		intraTotal += k * (k - 1)
		if s >= ie.q || ie.dirtyAt[s] == ie.dirtyGen {
			// Orbit images fold via the sym scaling below; dirty rows are
			// in the sweep totals.
			continue
		}
		// Clean rows hold the current distances; patch their cached
		// aggregates for pending host-count deltas exactly as sync would
		// after committing.
		sum, reach := ie.rowSum[s], ie.rowRch[s]
		for _, b := range ie.hostDelta {
			if int(b) == s {
				continue
			}
			d := ie.row(s)[b]
			if d < 0 {
				continue
			}
			sum += int64(g.hosts[b]-ie.hosts[b]) * int64(d+2)
			wasBearing, isBearing := ie.hosts[b] > 0, g.hosts[b] > 0
			if wasBearing != isBearing {
				if isBearing {
					reach++
				} else {
					reach--
				}
			}
		}
		ordered += k * sum
		orderedReach += reach
	}
	if ie.sym > 1 {
		ordered *= int64(ie.sym)
		orderedReach *= int64(ie.sym)
	}
	allAttached := attached == int64(g.n)
	switch {
	case bearing == 0:
		return 0, allAttached && g.n <= 1, true
	case bearing == 1:
		return intraTotal, allAttached, true
	}
	if !(allAttached && orderedReach == int64(bearing)*int64(bearing-1)) {
		return 0, false, true
	}
	return intraTotal + ordered/2, true, true
}

// stampPeek records the pending state the just-derived ie.dirty belongs
// to, so a commit of the same state can skip re-deriving it.
func (ie *IncrementalEvaluator) stampPeek(g *Graph) {
	ie.peekValid = true
	ie.peekOps = append(ie.peekOps[:0], g.oplog...)
	ie.peekHosts = append(ie.peekHosts[:0], g.hosts...)
}

// peekApplicable reports whether the stamp describes exactly the pending
// state sync is about to commit: the identical op log (content, not just
// length — the ops plus the host counts pin the candidate graph, since the
// cache itself has not moved between the two calls) and the identical
// host counts. ie.dirty is then still the stamped state's dirty set,
// because every markDirty since would have cleared the stamp.
func (ie *IncrementalEvaluator) peekApplicable(g *Graph) bool {
	if !ie.peekValid || len(ie.peekOps) != len(g.oplog) {
		return false
	}
	for i, op := range g.oplog {
		if ie.peekOps[i] != op {
			return false
		}
	}
	for b, k := range g.hosts {
		if ie.peekHosts[b] != k {
			return false
		}
	}
	return true
}

// Evaluate computes the full Metrics from the cached rows — bit-identical
// to Evaluator.Evaluate, including the partial sums of disconnected
// graphs.
func (ie *IncrementalEvaluator) Evaluate(g *Graph) Metrics {
	ie.sync(g)
	intraTotal, intraPairs, ordered, orderedW, orderedReach, attached, bearing := ie.gatherTotals(g)
	allAttached := attached == int64(g.n)
	switch {
	case bearing == 0:
		return g.finishMetrics(0, 0, 0, allAttached && g.n <= 1)
	case bearing == 1:
		diam := 0
		for _, k := range g.hosts {
			if k >= 2 {
				diam = 2
			}
		}
		return g.finishMetrics(intraTotal, intraPairs, diam, allAttached)
	}
	diam := 0
	for s := 0; s < ie.m; s++ {
		if g.hosts[s] >= 2 {
			diam = 2
			break
		}
	}
	// Distances are symmetric across orbit images, so in orbit mode the
	// representative rows already contain every distinct distance value.
	for s := 0; s < ie.q; s++ {
		if g.hosts[s] == 0 {
			continue
		}
		row := ie.row(s)
		for t, d := range row {
			if d <= 0 || t == s || g.hosts[t] == 0 {
				continue
			}
			if int(d)+2 > diam {
				diam = int(d) + 2
			}
		}
	}
	connected := allAttached && orderedReach == int64(bearing)*int64(bearing-1)
	return g.finishMetrics(intraTotal+ordered/2, intraPairs+orderedW/2, diam, connected)
}
