package hsgraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// IncrementalEvaluator computes the same metrics as Evaluator but caches
// the full per-source distance rows of the last graph it committed, so
// that a re-evaluation after a local mutation (an annealing swap or swing
// touches 1-2 edges) only repairs the few row entries that changed.
//
// The evaluator arms the graph's edge-mutation log; between evaluations it
// derives the net edge diff from the log and flags (markDirty) every row
// the diff can change: rows where a net-removed edge was tight (endpoints
// one level apart) and its far endpoint has no other predecessor over a
// surviving edge, and rows where a net-added edge is slack (endpoints two
// or more levels apart, or in different components). Each flagged row is
// repaired in place with the unit-weight dynamic-BFS rules of Ramalingam &
// Reps ("An incremental algorithm for a generalization of the
// shortest-path problem", J. Algorithms 1996), on the graph without the
// net-added edges first:
//
//   - the switches that lose every shortest-path predecessor are found
//     level by level, outward from the far endpoints of the removed tight
//     edges, and re-settled from their unaffected boundary with a bucket
//     queue by distance, keeping -1 when nothing reaches them;
//   - then each slack added edge lowers distances outward from its far
//     endpoint, breadth-first, on the current graph.
//
// Every changed entry moves its row's aggregates by k_t·Δd (and rowW and
// rowRch when switch t changes reachability). Host-count changes stay
// pending until a commit folds them into every row, reading the changed
// switch's column (see column); a peek shifts its totals for them instead.
// Net diffing makes rollbacks free of graph work: a rejected move's undo
// cancels the move's own entries. Every cached quantity is an exact
// integer derived per row, so results are bit-identical to Evaluator's for
// every worker count and every mutation history.
//
// PeekEnergy evaluates a candidate without committing it. When the repair
// pays (repairPays), it applies the candidate to the rows under an undo
// log of (entry, old distance) plus the old row aggregates, the idiom of
// mnakao/ORP's ORP_Restore record: committing the peeked candidate then
// only drops the log, and any other next call first replays it backwards.
// Otherwise — on small graphs, where one batched bit-parallel traversal
// costs less than repairing a few dozen rows — it evaluates the flagged
// rows with the totals kernel and the commit repairs them. When more than
// fallbackNum/fallbackDen of the rows are flagged, the peek uses the
// totals kernel and the commit rebuilds every row.
//
// An IncrementalEvaluator is not safe for concurrent use, and at most one
// may be attached to a graph at a time (attaching a second one invalidates
// the first, which then falls back to a full rebuild). Memory cost is one
// m x m distance matrix of int16, so m is capped at MaxIncrementalSwitches.
//
// Orbit mode (NewOrbitIncrementalEvaluator with sym >= 2) caches and
// repairs only the m/sym orbit-representative rows of a sym-symmetric
// graph and scales the fold-up by the orbit size, for bit-identical
// results at ~sym× less work. A representative row spans the full graph
// and the net diff holds every image edit, so the repair needs nothing
// orbit-specific. The attached graph must stay in the symmetric subspace:
// attach verifies the whole graph, every sync/peek verifies the pending
// mutations, and a violation panics — a quotient evaluation of an
// asymmetric graph would silently mis-evaluate, so the contract is
// fail-loud (use opt's symmetric move operators, which cannot leave the
// subspace).
type IncrementalEvaluator struct {
	workers int
	sym     int // symmetry order; 1 = generic mode
	q       int // representative rows cached: m/sym (== m when sym == 1)

	g      *Graph
	epoch  uint64  // g.opEpoch this evaluator armed
	m      int     // switch count of the cached graph
	dist   []int16 // q*m distance rows, row-major; -1 = unreachable
	rowSum []int64 // rowSum[s]  = sum over reachable t!=s of k_t*(d(s,t)+2)
	rowW   []int64 // rowW[s]    = sum over reachable t!=s of k_t
	rowRch []int64 // rowRch[s]  = #{t != s : k_t > 0, reachable}
	hosts  []int32 // host counts of the committed state
	valid  bool

	// Net diff of the pending op log against the committed state.
	netKeys   [][2]int32 // net edge diff keys (insertion order)
	netDelta  []int32    // +1 net-added, -1 net-removed, 0 cancelled
	removed   [][2]int32 // the net-removed edges
	added     [][2]int32 // the net-added edges
	addedAt   []uint32   // addedAt[v] == diffGen: v ends a net-added edge
	addedTo   []int32    // then v's one added neighbour, or -1 for several
	diffGen   uint32
	hostDelta []int32 // switches whose host count differs from the committed one
	// repairCost is repairRowCost; tests set it to 0 (every peek repairs)
	// or very high (every peek uses the totals kernel).
	repairCost int

	// Row-pass and sweep scratch, reused across calls.
	rep          []repairScratch // per-worker repair scratch and undo logs
	sweep        []sweepScratch  // per-worker bit-BFS scratch
	cursor       atomic.Int64
	dirty        []int32   // rows the pending diff can change, ascending
	flagged      []bool    // markDirty's row flags
	colsA, colsB [][]int16 // markDirty's neighbour columns
	clean        []int32   // totalsEnergy's source weights, 0 on dirty rows
	levels       int       // BFS levels from representative 0 at the last rebuild
	queue        []int32
	negRow       []int16 // all -1, the row-prefill template

	// Candidate stamp: the pending state (compacted op log and host
	// counts) the last peek evaluated. With applied set, the rows hold that
	// candidate's distances and rep's undo logs restore the committed
	// ones; without, the rows hold the committed distances, the net diff
	// and dirty list are the candidate's, and peekE/peekConn its energy.
	peekHosts []int32
	peekOps   []edgeOp
	peekValid bool
	applied   bool
	peekE     int64
	peekConn  bool

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
	// because more than fallbackNum/fallbackDen of the rows were dirty.
	FullRebuilds int64
	// StoredPeekReuses counts commits that found the peeked candidate
	// already applied to the rows, so the commit only dropped the undo log.
	StoredPeekReuses int64
	// DirtySources accumulates the dirty rows (markDirty's) of the
	// commits, every row for a full rebuild; DirtySources/float64(Syncs*m)
	// is the mean dirty-row fraction.
	DirtySources int64
	// SweptSources accumulates rows swept into the cache by the row
	// kernel: at attach and at full rebuilds. Every other row change is a
	// repair (RepairedEntries).
	SweptSources int64
	// Peeks counts PeekEnergy calls answered by the cache.
	Peeks int64
	// RepairedEntries accumulates the distance entries the repair
	// rewrote, in peeks and commits alike (a rolled-back candidate's
	// entries included).
	RepairedEntries int64
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

// Fallback threshold: when more than fallbackNum/fallbackDen of the rows
// change, a peek evaluates with the totals kernel and a commit rebuilds
// every row in one batched sweep instead of keeping the repair.
const (
	fallbackNum = 3
	fallbackDen = 4
)

// NewIncrementalEvaluator returns an evaluator with the given number of
// workers (values below 1 mean 1). Workers only affect throughput, never
// results.
func NewIncrementalEvaluator(workers int) *IncrementalEvaluator {
	return NewOrbitIncrementalEvaluator(workers, 1)
}

// NewOrbitIncrementalEvaluator returns an evaluator in orbit mode: it is
// restricted to graphs closed under the cyclic group action of order sym
// (see VerifySymmetric) and caches only the orbit-representative distance
// rows, ~sym× less work and memory for the same bit-identical results.
// sym values below 2 mean the generic evaluator. Mutating the attached
// graph out of the symmetric subspace panics at the next sync/peek (see
// the type comment).
func NewOrbitIncrementalEvaluator(workers, sym int) *IncrementalEvaluator {
	if workers < 1 {
		workers = 1
	}
	if sym < 1 {
		sym = 1
	}
	return &IncrementalEvaluator{
		workers:    workers,
		sym:        sym,
		repairCost: repairRowCost,
		rep:        make([]repairScratch, workers),
		sweep:      make([]sweepScratch, workers),
	}
}

// Workers returns the configured worker count.
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
	if cap(ie.addedAt) < m {
		ie.addedAt = make([]uint32, m)
		ie.addedTo = make([]int32, m)
		ie.diffGen = 0
	}
	ie.addedAt, ie.addedTo = ie.addedAt[:m], ie.addedTo[:m]
	if cap(ie.negRow) < m {
		ie.negRow = make([]int16, m)
		for i := range ie.negRow {
			ie.negRow[i] = -1
		}
	}
	ie.negRow = ie.negRow[:m]
	for w := range ie.rep {
		ie.rep[w].grow(m)
		ie.rep[w].reset()
	}
	ie.applied, ie.peekValid = false, false
	ie.hostDelta = ie.hostDelta[:0]
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

// sync brings the cache up to date with g and commits that state,
// consuming the pending op log.
func (ie *IncrementalEvaluator) sync(g *Graph) {
	if !ie.synced(g) {
		ie.attach(g)
		return
	}
	stamped := ie.peekValid && ie.stampMatches(g)
	if !stamped {
		ie.restore()
	}
	if len(g.oplog) == 0 && !ie.hostsChanged(g) {
		ie.peekValid, ie.applied = false, false
		ie.dropUndo()
		return
	}
	ie.stats.Syncs++
	if stamped && ie.applied {
		// The peeked candidate is the state to commit, and it is already
		// in the rows.
		ie.stats.StoredPeekReuses++
	} else {
		// A peek that used the totals kernel left the candidate's net
		// diff and dirty rows in place; otherwise derive them now.
		if !stamped {
			ie.netDiff(g.oplog)
			ie.checkSymmetryPending(g)
			ie.splitDiff(g)
			ie.markDirty()
		}
		if !ie.tooDirty() {
			ie.repairDirty()
			ie.applied = true
		}
	}
	if ie.applied {
		ie.stats.DirtySources += int64(len(ie.dirty))
		ie.patchHosts(g)
	} else {
		ie.stats.FullRebuilds++
		ie.stats.DirtySources += int64(ie.q)
		ie.hosts = append(ie.hosts[:0], g.hosts...)
		ie.rebuildAll()
	}
	ie.hostDelta = ie.hostDelta[:0]
	ie.peekValid, ie.applied = false, false
	ie.dropUndo()
	g.oplog = g.oplog[:0]
}

// column returns d(s, b) for the representative sources s in [0, q): by
// symmetry of distances and orbit invariance, a contiguous slice of the
// row of b's representative, d(s, b) = d(b mod q, s - (b div q)·q).
func (ie *IncrementalEvaluator) column(b int) []int16 {
	q, j := ie.q, b/ie.q
	off := ((ie.sym - j) % ie.sym) * q
	return ie.row(b % q)[off : off+q]
}

// hostChange returns switch b's pending host-count change and the shift
// of the bearing-target count it causes: +1 or -1 when b starts or stops
// bearing hosts, else 0.
func (ie *IncrementalEvaluator) hostChange(g *Graph, b int) (delta, flip int64) {
	was, is := ie.hosts[b] > 0, g.hosts[b] > 0
	switch {
	case is && !was:
		flip = 1
	case was && !is:
		flip = -1
	}
	return int64(g.hosts[b] - ie.hosts[b]), flip
}

// hostShift folds the pending host-count change of switch b into the
// ordered totals of the representative sources, weighted by their host
// counts k: moving delta hosts onto b adds k_s·delta·(d(s,b)+2) per source
// s that reaches b, and each such source's reach moves by b's flip. It
// reads b's column, so the rows read must hold the pending distances.
func (ie *IncrementalEvaluator) hostShift(g *Graph, b int, k []int32) (sum, reach int64) {
	delta, flip := ie.hostChange(g, b)
	for s, d := range ie.column(b) {
		if d < 0 || s == b || k[s] == 0 {
			continue
		}
		sum += int64(k[s]) * delta * int64(d+2)
		reach += flip
	}
	return sum, reach
}

// patchHosts commits the pending host counts into every row's aggregates:
// until now the rows weighted their targets by the committed counts.
func (ie *IncrementalEvaluator) patchHosts(g *Graph) {
	for b, k := range g.hosts {
		if k == ie.hosts[b] {
			continue
		}
		delta, flip := ie.hostChange(g, b)
		for s, d := range ie.column(b) {
			if d < 0 || s == b {
				continue
			}
			ie.rowSum[s] += delta * int64(d+2)
			ie.rowW[s] += delta
			ie.rowRch[s] += flip
		}
	}
	ie.hosts = append(ie.hosts[:0], g.hosts...)
}

// restore rolls the rows back to the committed state, replaying every
// worker's undo log backwards, and drops the candidate stamp.
func (ie *IncrementalEvaluator) restore() {
	if ie.applied {
		for w := range ie.rep {
			ie.rep[w].rollback(ie)
		}
		ie.applied = false
	}
	ie.peekValid = false
	ie.hostDelta = ie.hostDelta[:0]
}

// dropUndo forgets the undo logs: the rows they would restore are gone.
func (ie *IncrementalEvaluator) dropUndo() {
	for w := range ie.rep {
		ie.rep[w].reset()
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
	return !slices.Equal(g.hosts, ie.hosts)
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

// splitDiff sorts the net diff into removed and added edges, marks the
// endpoints of the added ones, and lists the switches whose host count
// differs from the committed state.
func (ie *IncrementalEvaluator) splitDiff(g *Graph) {
	ie.removed, ie.added = ie.removed[:0], ie.added[:0]
	ie.diffGen++
	if ie.diffGen == 0 { // wrapped: marks are stale, reset
		clear(ie.addedAt)
		ie.diffGen = 1
	}
	for i, k := range ie.netKeys {
		switch {
		case ie.netDelta[i] < 0:
			ie.removed = append(ie.removed, k)
		case ie.netDelta[i] > 0:
			ie.added = append(ie.added, k)
			ie.markAdded(k[0], k[1])
			ie.markAdded(k[1], k[0])
		}
	}
	ie.hostDelta = ie.hostDelta[:0]
	for b, k := range g.hosts {
		if k != ie.hosts[b] {
			ie.hostDelta = append(ie.hostDelta, int32(b))
		}
	}
}

// markAdded records u as a net-added neighbour of v.
func (ie *IncrementalEvaluator) markAdded(v, u int32) {
	if ie.addedAt[v] == ie.diffGen {
		ie.addedTo[v] = -1
		return
	}
	ie.addedAt[v], ie.addedTo[v] = ie.diffGen, u
}

// isAdded reports whether {v,u} is a net-added edge.
func (ie *IncrementalEvaluator) isAdded(v, u int32) bool {
	if ie.addedAt[v] != ie.diffGen {
		return false
	}
	if w := ie.addedTo[v]; w >= 0 {
		return w == u
	}
	key := edgeKey(v, u)
	for _, e := range ie.added {
		if e == key {
			return true
		}
	}
	return false
}

// repairChunk is the number of dirty rows a worker claims at once. A
// pass with fewer rows runs on the calling goroutine alone: a few dozen
// row repairs take less time than waking a second goroutine.
const repairChunk = 32

// repairDirty repairs every row markDirty flagged in place, in a pass
// sharded over the workers, logging every change for rollback. Host-count
// changes stay pending (see patchHosts).
func (ie *IncrementalEvaluator) repairDirty() {
	if len(ie.dirty) == 0 {
		return
	}
	ie.cursor.Store(0)
	workers := min(ie.workers, (len(ie.dirty)+repairChunk-1)/repairChunk)
	if workers <= 1 {
		ie.repairWorker(&ie.rep[0])
	} else {
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ie.repairWorker(&ie.rep[w])
			}(w)
		}
		ie.repairWorker(&ie.rep[0])
		wg.Wait()
	}
	for w := range ie.rep[:workers] {
		rs := &ie.rep[w]
		ie.stats.RepairedEntries += rs.entries
		rs.entries = 0
	}
}

// tooDirty reports whether more than fallbackNum/fallbackDen of the rows
// are flagged: a full rebuild then beats patching rows.
func (ie *IncrementalEvaluator) tooDirty() bool {
	return len(ie.dirty)*fallbackDen > ie.q*fallbackNum
}

// repairRowCost is the measured cost of repairing one dirty row, in the
// units of sweepCost (one mask word visited per switch or adjacency
// entry per BFS level): about 1.1 µs against 1.9 ns per unit, at the
// n=1024, r=15 cell on the 2-vCPU VM (EXPERIMENTS).
const repairRowCost = 576

// repairPays reports whether a peek should repair the dirty rows in place
// rather than evaluate them with the totals kernel: the repair costs about
// repairRowCost per row, the kernel one traversal of the graph per BFS
// level for every 64 rows (two mask words per 128 beyond 64). On small
// graphs a batched traversal is cheaper than repairing a few dozen rows;
// on large ones the repair wins by orders of magnitude.
func (ie *IncrementalEvaluator) repairPays() bool {
	n := len(ie.dirty)
	words := 1
	if n > 64 {
		words = 2 * ((n + 127) / 128)
	}
	sweepCost := words * ie.levels * (ie.m + 2*len(ie.g.edges))
	return n*ie.repairCost < sweepCost
}

// repairWorker repairs chunks of the dirty rows until none is left.
func (ie *IncrementalEvaluator) repairWorker(rs *repairScratch) {
	for {
		lo := int(ie.cursor.Add(1)-1) * repairChunk
		if lo >= len(ie.dirty) {
			return
		}
		for _, s := range ie.dirty[lo:min(lo+repairChunk, len(ie.dirty))] {
			ie.repairRow(rs, int(s))
		}
	}
}

// markDirty lists in ie.dirty, ascending, every row the pending net diff
// can change. It reads the committed distances column by column — d(s,
// v) over all representative sources s is one contiguous slice (see
// column) — so a clean row is never touched. Soundness: a row flagged by
// no net edge keeps its exact distances. A removed edge can only raise
// distances where it was tight (endpoints one level apart) and its far
// endpoint has no other neighbour one level up over a surviving edge:
// removing the edges one at a time, such a neighbour keeps its own
// distance, since a shortest path to it cannot use an edge leading one
// level deeper. An added edge can only lower distances where it is slack
// (endpoints two or more levels apart) or joins a new component; with no
// removal raising anything, the committed distances are the ones to
// judge it on.
func (ie *IncrementalEvaluator) markDirty() {
	q := ie.q
	if cap(ie.flagged) < q {
		ie.flagged = make([]bool, q)
	}
	flagged := ie.flagged[:q]
	clear(flagged)
	for _, e := range ie.removed {
		ca, cb := ie.column(int(e[0])), ie.column(int(e[1]))
		colsA := ie.supportCols(e[0], ie.colsA[:0])
		colsB := ie.supportCols(e[1], ie.colsB[:0])
		ie.colsA, ie.colsB = colsA[:0], colsB[:0]
		// Tight in row s with the far endpoint one level past the near one:
		// dirty unless the far endpoint keeps a neighbour one level up.
		for s, da := range ca {
			db := cb[s]
			switch {
			case flagged[s] || da < 0 || db < 0:
			case db == da+1:
				flagged[s] = !supported(colsB, s, db)
			case da == db+1:
				flagged[s] = !supported(colsA, s, da)
			}
		}
	}
	for _, e := range ie.added {
		ca, cb := ie.column(int(e[0])), ie.column(int(e[1]))
		for s, da := range ca {
			if db := cb[s]; (da < 0) != (db < 0) || da-db >= 2 || db-da >= 2 {
				flagged[s] = true
			}
		}
	}
	ie.dirty = ie.dirty[:0]
	for s, f := range flagged {
		if f {
			ie.dirty = append(ie.dirty, int32(s))
		}
	}
}

// supportCols appends to cols the columns of v's neighbours over edges
// that are not net-added.
func (ie *IncrementalEvaluator) supportCols(v int32, cols [][]int16) [][]int16 {
	vAdded := ie.addedAt[v] == ie.diffGen
	for _, u := range ie.g.adj[v] {
		if !(vAdded && ie.isAdded(v, u)) {
			cols = append(cols, ie.column(int(u)))
		}
	}
	return cols
}

// supported reports whether some column holds d-1 in row s.
func supported(cols [][]int16, s int, d int16) bool {
	for _, cu := range cols {
		if cu[s] == d-1 {
			return true
		}
	}
	return false
}

// stamp records the pending state the cache now answers for.
func (ie *IncrementalEvaluator) stamp(g *Graph) {
	ie.peekValid = true
	ie.peekOps = append(ie.peekOps[:0], g.oplog...)
	ie.peekHosts = append(ie.peekHosts[:0], g.hosts...)
}

// stampMatches reports whether the stamp describes exactly g's pending
// state: the identical op log (content, not just length — the ops plus
// the host counts pin the candidate graph, since the committed state has
// not moved in between) and the identical host counts.
func (ie *IncrementalEvaluator) stampMatches(g *Graph) bool {
	return slices.Equal(ie.peekOps, g.oplog) && slices.Equal(ie.peekHosts, g.hosts)
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
	ie.levels = 1 + int(slices.Max(ie.row(0)))
}

// sweepSources sweeps the given sources on the current graph in lane-width
// batches sharded over the workers. With rows it recomputes their cached
// distance rows and aggregates; without, it writes nothing and returns the
// batch totals under the current host counts (totalsEnergy).
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
// post-hoc pass over the row would do, just without re-reading it — and
// weight the targets by the committed host counts, like every row.
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
			kv := int64(ie.hosts[v])
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
			kv := int64(ie.hosts[v])
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
// are connected — bit-identical to Evaluator.Energy — after committing
// g's pending state into the cache.
func (ie *IncrementalEvaluator) Energy(g *Graph) (int64, bool) {
	ie.sync(g)
	return ie.energy(g)
}

// energy folds the cached row aggregates into Energy's verdict. The rows
// weight their targets by the committed host counts, so the totals shift
// for the switches whose count is pending (none after a commit).
func (ie *IncrementalEvaluator) energy(g *Graph) (int64, bool) {
	intraTotal, _, ordered, _, orderedReach, attached, bearing := ie.gatherTotals(g)
	for _, b := range ie.hostDelta {
		sum, reach := ie.hostShift(g, int(b), g.hosts)
		ordered += sum * int64(ie.sym)
		orderedReach += reach * int64(ie.sym)
	}
	return finishEnergy(g, intraTotal, ordered, orderedReach, attached, bearing)
}

// finishEnergy turns graph totals into Energy's verdict: the total
// host-pair path length, or 0 and false when the hosts are disconnected.
func finishEnergy(g *Graph, intraTotal, ordered, orderedReach, attached int64, bearing int) (int64, bool) {
	allAttached := attached == int64(g.n)
	switch {
	case bearing == 0:
		return 0, allAttached && g.n <= 1
	case bearing == 1:
		return intraTotal, allAttached
	}
	if !(allAttached && orderedReach == int64(bearing)*int64(bearing-1)) {
		return 0, false
	}
	return intraTotal + ordered/2, true
}

// PeekEnergy computes exactly what Energy would return for g — the same
// integers, bit for bit — without committing: the op log stays pending.
// The candidate is repaired into the rows under an undo log, so
// committing it next (an accepted move) costs nothing, and any other next
// call first rolls the rows back (a rejected move). A candidate that
// changes more than fallbackNum/fallbackDen of the rows is evaluated with
// the totals kernel instead, leaving the rows untouched. ok is false when
// the cache is not attached to g; the caller then falls back to Energy.
func (ie *IncrementalEvaluator) PeekEnergy(g *Graph) (energy int64, connected, ok bool) {
	if !ie.synced(g) {
		return 0, false, false
	}
	ie.stats.Peeks++
	if !ie.peekValid || !ie.stampMatches(g) {
		ie.restore()
		ie.netDiff(g.oplog)
		ie.checkSymmetryPending(g)
		ie.compactOpLog(g)
		ie.stamp(g)
		ie.splitDiff(g)
		ie.markDirty()
		if !ie.tooDirty() && ie.repairPays() {
			ie.repairDirty()
			ie.applied = true
		} else {
			ie.peekE, ie.peekConn = ie.totalsEnergy(g)
		}
	}
	if !ie.applied {
		return ie.peekE, ie.peekConn, true
	}
	energy, connected = ie.energy(g)
	return energy, connected, true
}

// totalsEnergy evaluates g's pending state without writing anything:
// the dirty rows with the totals kernel (from their host-bearing sources),
// the clean rows from their cached aggregates, shifted for the pending
// host counts. A clean row's distances are the pending ones, and so are
// the entries the shift reads from the columns of the changed switches.
func (ie *IncrementalEvaluator) totalsEnergy(g *Graph) (int64, bool) {
	k := append(ie.clean[:0], g.hosts[:ie.q]...)
	ie.clean = k
	srcs := ie.queue[:0]
	for _, s := range ie.dirty {
		if k[s] > 0 {
			srcs = append(srcs, s)
		}
		k[s] = 0
	}
	t := ie.sweepSources(srcs, false)
	ie.queue = srcs[:0]
	ordered, orderedReach := t.sum, t.reach
	for s, ks := range k {
		if ks > 0 {
			ordered += int64(ks) * ie.rowSum[s]
			orderedReach += ie.rowRch[s]
		}
	}
	for _, b := range ie.hostDelta {
		sum, reach := ie.hostShift(g, int(b), k)
		ordered += sum
		orderedReach += reach
	}
	var intraTotal, attached int64
	bearing := 0
	for _, kb := range g.hosts {
		if kb > 0 {
			bearing++
			attached += int64(kb)
			intraTotal += int64(kb) * int64(kb-1)
		}
	}
	sym := int64(ie.sym)
	return finishEnergy(g, intraTotal, ordered*sym, orderedReach*sym, attached, bearing)
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
