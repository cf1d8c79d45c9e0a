package hsgraph

import "math/bits"

// sweepScratch is one worker's bit-parallel BFS scratch: visited, frontier
// and next-frontier words, two per switch so either lane width fits, plus
// the totals that worker's sweeps accumulated.
type sweepScratch struct {
	visited, front, next []uint64
	tot                  batchTotals
	_                    [16]byte // separate hot accumulators of adjacent workers
}

// grow sizes the scratch for m switches at the 128-lane width.
func (sc *sweepScratch) grow(m int) {
	if cap(sc.visited) < 2*m {
		sc.visited = make([]uint64, 2*m)
		sc.front = make([]uint64, 2*m)
		sc.next = make([]uint64, 2*m)
	}
}

// batchTotals are what a sweep from a batch of sources contributes to a
// graph's totals, summed over the ordered pairs (s, v) of a batch source s
// and a host-bearing switch v != s reachable from it.
type batchTotals struct {
	sum    int64 // Σ k_s·k_v·(d(s,v)+2)
	reach  int64 // pairs whose source bears hosts too
	wpairs int64 // Σ k_s·k_v
	depth  int   // largest d(s,v) over pairs whose source bears hosts (0: none)
}

func (t *batchTotals) add(o batchTotals) {
	t.sum += o.sum
	t.reach += o.reach
	t.wpairs += o.wpairs
	t.depth = max(t.depth, o.depth)
}

// sweepTotals adds the totals of one bit-parallel BFS from batch (at most
// 128 sources, one per bit lane) on g to sc.tot. It is the kernel of every
// evaluation that needs only totals, not distance rows.
//
// A newly reached word is folded with popcounts instead of a walk over
// its set lanes: bit plane b masks the lanes whose source host count has
// bit b set, so Σ k_s over the lanes of a word w is Σ_b 2^b·|w & plane_b|,
// and |w & bearing| counts the lanes whose source bears hosts. A batch
// whose sources carry at most k hosts needs bits.Len(k) planes.
func (sc *sweepScratch) sweepTotals(g *Graph, batch []int32) {
	var planes [32][2]uint64
	var bearing [2]uint64
	np := 0
	for i, s := range batch {
		k := uint32(g.hosts[s])
		if k == 0 {
			continue
		}
		w, lane := i>>6, uint64(1)<<uint(i&63)
		bearing[w] |= lane
		np = max(np, bits.Len32(k))
		for b := 0; k != 0; b, k = b+1, k>>1 {
			if k&1 != 0 {
				planes[b][w] |= lane
			}
		}
	}
	if len(batch) <= 64 {
		sc.totalsNarrow(g, batch, planes[:np], bearing[0])
	} else {
		sc.totalsWide(g, batch, planes[:np], bearing)
	}
}

// totalsNarrow is the 64-lane sweep: one mask word per switch.
func (sc *sweepScratch) totalsNarrow(g *Graph, batch []int32, planes [][2]uint64, bearing uint64) {
	m := len(g.adj)
	visited, front, next := sc.visited[:m], sc.front[:m], sc.next[:m]
	clear(visited)
	clear(front)
	for bit, s := range batch {
		visited[s] |= 1 << uint(bit)
		front[s] |= 1 << uint(bit)
	}
	t := &sc.tot
	for level := int64(1); ; level++ {
		clear(next)
		for v, fv := range front {
			if fv == 0 {
				continue
			}
			// Unconditionally OR the frontier into next: the settle pass
			// masks off already-visited bits, so pre-filtering here would
			// only add a visited load and a branch per edge word.
			for _, u := range g.adj[v] {
				next[u] |= fv
			}
		}
		active := false
		var lw, lr int64 // this level's Σ k_s·k_v and bearing pair count
		for v := range next {
			nv := next[v] &^ visited[v]
			next[v] = nv
			if nv == 0 {
				continue
			}
			visited[v] |= nv
			active = true
			if kv := int64(g.hosts[v]); kv > 0 {
				var ks int64
				for b, p := range planes {
					ks += int64(bits.OnesCount64(nv&p[0])) << uint(b)
				}
				lw += kv * ks
				lr += int64(bits.OnesCount64(nv & bearing))
			}
		}
		if !active {
			return
		}
		t.sum += lw * (level + 2)
		t.wpairs += lw
		t.reach += lr
		if lr > 0 {
			t.depth = max(t.depth, int(level))
		}
		front, next = next, front
	}
}

// totalsWide is the 128-lane sweep: lane i lives in word i>>6, bit i&63
// of the interleaved two-words-per-switch arrays (the sweepRowsWide
// layout).
func (sc *sweepScratch) totalsWide(g *Graph, batch []int32, planes [][2]uint64, bearing [2]uint64) {
	m := len(g.adj)
	visited, front, next := sc.visited[:2*m], sc.front[:2*m], sc.next[:2*m]
	clear(visited)
	clear(front)
	for i, s := range batch {
		j := 2*int(s) + i>>6
		visited[j] |= 1 << uint(i&63)
		front[j] |= 1 << uint(i&63)
	}
	t := &sc.tot
	for level := int64(1); ; level++ {
		clear(next)
		for v := 0; v < m; v++ {
			f0, f1 := front[2*v], front[2*v+1]
			if f0|f1 == 0 {
				continue
			}
			for _, u := range g.adj[v] {
				next[2*u] |= f0
				next[2*u+1] |= f1
			}
		}
		active := false
		var lw, lr int64
		for v := 0; v < m; v++ {
			nv0 := next[2*v] &^ visited[2*v]
			nv1 := next[2*v+1] &^ visited[2*v+1]
			next[2*v], next[2*v+1] = nv0, nv1
			if nv0|nv1 == 0 {
				continue
			}
			visited[2*v] |= nv0
			visited[2*v+1] |= nv1
			active = true
			if kv := int64(g.hosts[v]); kv > 0 {
				var ks int64
				for b, p := range planes {
					ks += int64(bits.OnesCount64(nv0&p[0])+bits.OnesCount64(nv1&p[1])) << uint(b)
				}
				lw += kv * ks
				lr += int64(bits.OnesCount64(nv0&bearing[0]) + bits.OnesCount64(nv1&bearing[1]))
			}
		}
		if !active {
			return
		}
		t.sum += lw * (level + 2)
		t.wpairs += lw
		t.reach += lr
		if lr > 0 {
			t.depth = max(t.depth, int(level))
		}
		front, next = next, front
	}
}
