package hsgraph

import "math"

// This file holds the in-place repair of one cached distance row (see the
// IncrementalEvaluator type comment): the net removals first, on the
// graph without the net-added edges, then the net additions on the
// current graph. Host-count changes are folded in at commit, for every
// row at once (patchHosts).

// repairScratch is one worker's repair scratch plus its undo log: every
// row the worker changed since the last commit or rollback can be
// restored from it, entry by entry, aggregates included.
type repairScratch struct {
	// mark[v] relative to gen: gen = queued as a removal candidate,
	// gen+1 = raised by the removals, gen+2 = raised and re-settled.
	// Anything else means untouched in the current row.
	mark []uint32
	gen  uint32
	// Bucket queue by distance: head[d] starts a list through link.
	head, link []int32
	lo, hi     int // bucket range in use; lo > hi when empty
	front      []int32
	next       []int32
	raised     []int32 // switches the removals raised, in discovery order
	raisedOld  []int16 // their distances before
	raisedNew  []int16 // their tentative distances

	undo    []distUndo // changed entries, oldest first
	aggs    []aggUndo  // aggregates of every touched row before the change
	entries int64      // entries repaired in the current pass
}

// distUndo is one changed distance entry: its index into the row store
// and its value before the change.
type distUndo struct {
	at  int32
	old int16
}

// aggUndo is one row's aggregates before the change.
type aggUndo struct {
	s           int32
	sum, w, rch int64
}

// grow sizes the scratch for m switches.
func (rs *repairScratch) grow(m int) {
	if len(rs.mark) >= m {
		return
	}
	rs.mark = make([]uint32, m)
	rs.gen = 0
	rs.head = make([]int32, m)
	for i := range rs.head {
		rs.head[i] = -1
	}
	rs.link = make([]int32, m)
	rs.lo, rs.hi = m, -1
}

// reset forgets the undo log.
func (rs *repairScratch) reset() {
	rs.undo = rs.undo[:0]
	rs.aggs = rs.aggs[:0]
}

// rollback replays the undo log backwards and forgets it.
func (rs *repairScratch) rollback(ie *IncrementalEvaluator) {
	for i := len(rs.undo) - 1; i >= 0; i-- {
		ie.dist[rs.undo[i].at] = rs.undo[i].old
	}
	for i := len(rs.aggs) - 1; i >= 0; i-- {
		a := rs.aggs[i]
		ie.rowSum[a.s], ie.rowW[a.s], ie.rowRch[a.s] = a.sum, a.w, a.rch
	}
	rs.reset()
}

// nextRow claims three fresh mark values for the next row, clearing the
// marks before the values could wrap.
func (rs *repairScratch) nextRow() {
	if rs.gen >= math.MaxUint32-5 {
		clear(rs.mark)
		rs.gen = 0
	}
	rs.gen += 3
}

// untouched reports whether v carries no mark of the current row.
func (rs *repairScratch) untouched(v int32) bool { return rs.mark[v]-rs.gen > 2 }

// bucket queues v at distance d.
func (rs *repairScratch) bucket(v int32, d int) {
	rs.link[v] = rs.head[d]
	rs.head[d] = v
	rs.lo, rs.hi = min(rs.lo, d), max(rs.hi, d)
}

// clearBuckets empties the bucket range in use.
func (rs *repairScratch) clearBuckets() {
	for d := rs.lo; d <= rs.hi; d++ {
		rs.head[d] = -1
	}
	rs.lo, rs.hi = len(rs.head), -1
}

// repairRow brings source s's row and aggregates from the committed
// distances to the pending ones, logging every change in rs.
func (ie *IncrementalEvaluator) repairRow(rs *repairScratch, s int) {
	row := ie.row(s)
	start := len(rs.undo)
	rs.aggs = append(rs.aggs, aggUndo{int32(s), ie.rowSum[s], ie.rowW[s], ie.rowRch[s]})
	ie.raiseRemoved(rs, s, row)
	ie.lowerAdded(rs, s, row)
	if len(rs.undo) == start {
		rs.aggs = rs.aggs[:len(rs.aggs)-1]
		return
	}
	rs.entries += int64(len(rs.undo) - start)
}

// raisedDist marks a raised switch's row entry while the removals are
// decided, so that it counts as no switch's predecessor and as nobody's
// boundary; real entries are >= -1.
const raisedDist = -2

// raiseRemoved applies the net removals to row, on the graph without the
// net-added edges. A switch v at distance d keeps it exactly when some
// neighbour u at d-1 keeps its own over an edge that survives; otherwise
// it is raised and its neighbours at d+1 must be checked in turn. The
// candidates are decided level by level, outward from the far endpoints
// of the removed tight edges, so every predecessor is decided first. The
// raised switches are then re-settled from their unaffected boundary and
// keep -1 when nothing reaches them.
func (ie *IncrementalEvaluator) raiseRemoved(rs *repairScratch, s int, row []int16) {
	started := false
	for _, e := range ie.removed {
		far := tightFar(row, e)
		if far < 0 {
			continue
		}
		if !started {
			rs.nextRow()
			rs.raised, rs.raisedOld = rs.raised[:0], rs.raisedOld[:0]
			started = true
		}
		if rs.untouched(far) {
			rs.mark[far] = rs.gen
			rs.bucket(far, int(row[far]))
		}
	}
	if !started {
		return
	}
	adj := ie.g.adj
	raised := rs.gen + 1
	for d := rs.lo; d <= rs.hi; d++ {
		for v := rs.head[d]; v >= 0; v = rs.link[v] {
			if ie.hasPred(row, v, int16(d)) {
				continue
			}
			vAdded := ie.addedAt[v] == ie.diffGen
			for _, w := range adj[v] {
				if int(row[w]) == d+1 && rs.untouched(w) && !(vAdded && ie.isAdded(v, w)) {
					rs.mark[w] = rs.gen
					rs.bucket(w, d+1)
				}
			}
			rs.mark[v] = raised
			row[v] = raisedDist
			rs.raised = append(rs.raised, v)
			rs.raisedOld = append(rs.raisedOld, int16(d))
		}
	}
	rs.clearBuckets()
	if len(rs.raised) == 0 {
		return
	}

	// Tentative distances over the unaffected boundary. A raised switch
	// lost every predecessor, so old+1 is a lower bound on its distance: a
	// neighbour that kept the old level pins it there at once, and when
	// every raised switch is pinned, all are final.
	pinned := true
	rs.raisedNew = rs.raisedNew[:0]
	for i, v := range rs.raised {
		old := rs.raisedOld[i]
		vAdded := ie.addedAt[v] == ie.diffGen
		best := int16(-1)
		for _, u := range adj[v] {
			if du := row[u]; du >= 0 && (best < 0 || du+1 < best) && !(vAdded && ie.isAdded(v, u)) {
				best = du + 1
				if best == old+1 {
					break
				}
			}
		}
		pinned = pinned && best == old+1
		rs.raisedNew = append(rs.raisedNew, best)
	}
	for i, v := range rs.raised {
		row[v] = rs.raisedNew[i]
	}
	if !pinned {
		for i, v := range rs.raised {
			if d := rs.raisedNew[i]; d >= 0 {
				rs.bucket(v, int(d))
			}
		}
		ie.settle(rs, row)
	}

	m := ie.m
	sum, w, rch := ie.rowSum[s], ie.rowW[s], ie.rowRch[s]
	for i, v := range rs.raised {
		old, now := rs.raisedOld[i], row[v]
		rs.undo = append(rs.undo, distUndo{int32(s*m + int(v)), old})
		if k := int64(ie.hosts[v]); k > 0 {
			if now >= 0 {
				sum += k * int64(now-old)
			} else {
				sum -= k * int64(old+2)
				w -= k
				rch--
			}
		}
	}
	ie.rowSum[s], ie.rowW[s], ie.rowRch[s] = sum, w, rch
}

// settle finishes the raised switches' tentative distances in distance
// order (Dijkstra with a bucket queue, unit weights): a raised switch is
// final when its bucket comes up, or when a settled neighbour one level
// down lowers it. Switches nothing reaches keep -1.
func (ie *IncrementalEvaluator) settle(rs *repairScratch, row []int16) {
	adj := ie.g.adj
	raised, settled := rs.gen+1, rs.gen+2
	front, next := rs.front[:0], rs.next[:0]
	for d := rs.lo; ; d++ {
		if d <= rs.hi {
			for v := rs.head[d]; v >= 0; v = rs.link[v] {
				if rs.mark[v] == raised {
					rs.mark[v] = settled
					front = append(front, v)
				}
			}
		}
		if len(front) == 0 && d >= rs.hi {
			break
		}
		next = next[:0]
		for _, v := range front {
			for _, w := range adj[v] {
				if rs.mark[w] == raised && (row[w] < 0 || int(row[w]) > d+1) && !ie.isAdded(v, w) {
					row[w] = int16(d + 1)
					rs.mark[w] = settled
					next = append(next, w)
				}
			}
		}
		front, next = next, front
	}
	rs.front, rs.next = front[:0], next[:0]
	rs.clearBuckets()
}

// tightFar returns the far endpoint of edge e when e is tight from the
// row's source (its endpoints one level apart), else -1.
func tightFar(row []int16, e [2]int32) int32 {
	da, db := row[e[0]], row[e[1]]
	switch {
	case da < 0 || db < 0:
		return -1 // unreachable from the source
	case da-db == 1:
		return e[0]
	case db-da == 1:
		return e[1]
	}
	return -1 // on no shortest path
}

// hasPred reports whether switch v, at distance d, has a neighbour at
// d-1 over an edge that is not net-added.
func (ie *IncrementalEvaluator) hasPred(row []int16, v int32, d int16) bool {
	vAdded := ie.addedAt[v] == ie.diffGen
	for _, u := range ie.g.adj[v] {
		if row[u] == d-1 && !(vAdded && ie.isAdded(v, u)) {
			return true
		}
	}
	return false
}

// lowerAdded applies the net additions to row, on the current graph: an
// added edge with one endpoint more than one level past the other lowers
// that far endpoint, and the decrease spreads outward breadth-first (so
// every switch is lowered at most once per edge, straight to its final
// value for that edge). Each edge is judged on the row as the earlier ones
// left it.
func (ie *IncrementalEvaluator) lowerAdded(rs *repairScratch, s int, row []int16) {
	adj := ie.g.adj
	m := ie.m
	sum, w, rch := ie.rowSum[s], ie.rowW[s], ie.rowRch[s]
	lower := func(v int32, d int16) {
		old := row[v]
		rs.undo = append(rs.undo, distUndo{int32(s*m + int(v)), old})
		row[v] = d
		if k := int64(ie.hosts[v]); k > 0 {
			if old >= 0 {
				sum += k * int64(d-old)
			} else {
				sum += k * int64(d+2)
				w += k
				rch++
			}
		}
	}
	for _, e := range ie.added {
		da, db := row[e[0]], row[e[1]]
		var seed int32
		var d int16
		switch {
		case da >= 0 && (db < 0 || db > da+1):
			seed, d = e[1], da+1
		case db >= 0 && (da < 0 || da > db+1):
			seed, d = e[0], db+1
		default:
			continue
		}
		lower(seed, d)
		queue := append(rs.front[:0], seed)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			dv := row[v] + 1
			for _, u := range adj[v] {
				if du := row[u]; du < 0 || du > dv {
					lower(u, dv)
					queue = append(queue, u)
				}
			}
		}
		rs.front = queue[:0]
	}
	ie.rowSum[s], ie.rowW[s], ie.rowRch[s] = sum, w, rch
}
