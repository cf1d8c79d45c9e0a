package runstore

import (
	"fmt"
	"sort"
)

// Cell identifies one leaderboard bucket of the order/radix problem:
// order n and switch radix r, as in the paper's Table 3 and the Graph
// Golf best-known tables. The switch count m is free in the ORP
// formulation, so by default records with different m compete in the
// same cell; a by-m split keys on it too for readers who want the
// fixed-m view.
type Cell struct {
	N int `json:"n"`
	R int `json:"r"`
	M int `json:"m,omitempty"` // 0 unless the leaderboard was split by m
}

func (c Cell) String() string {
	if c.M != 0 {
		return fmt.Sprintf("n=%d r=%d m=%d", c.N, c.R, c.M)
	}
	return fmt.Sprintf("n=%d r=%d", c.N, c.R)
}

// BestEntry is one leaderboard row: the best-known h-ASPL in a cell and
// the record that achieved it.
type BestEntry struct {
	Cell   Cell   `json:"cell"`
	Record Record `json:"record"`
}

// eligible reports whether a record can compete on the leaderboard: it
// must describe a real, connected graph with a computed h-ASPL.
func eligible(r *Record) bool {
	return r.N > 0 && r.R > 0 && r.Metrics.Connected && r.Metrics.HASPL > 0
}

// cellOf buckets a record, optionally keeping m in the key.
func cellOf(r *Record, byM bool) Cell {
	c := Cell{N: r.N, R: r.R}
	if byM {
		c.M = r.M
	}
	return c
}

// Best computes the best-known leaderboard over recs: per cell, the
// eligible record with the minimum h-ASPL. Ties go to the earliest
// record — the first achiever keeps the title. Rows come back sorted by
// (n, r, m).
func Best(recs []Record, byM bool) []BestEntry {
	best := make(map[Cell]int)
	for i := range recs {
		if !eligible(&recs[i]) {
			continue
		}
		c := cellOf(&recs[i], byM)
		j, ok := best[c]
		if !ok || recs[i].Metrics.HASPL < recs[j].Metrics.HASPL {
			best[c] = i
		}
	}
	out := make([]BestEntry, 0, len(best))
	for c, i := range best {
		out = append(out, BestEntry{Cell: c, Record: recs[i]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Cell, out[j].Cell
		if a.N != b.N {
			return a.N < b.N
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.M < b.M
	})
	return out
}

// CheckResult is the verdict of a regression check: a candidate record
// measured against the best previously-known result in its cell.
type CheckResult struct {
	Candidate Record  `json:"candidate"`
	Cell      Cell    `json:"cell"`
	Best      *Record `json:"best,omitempty"` // nil when the candidate is first in its cell
	// Regressed is true when the candidate's h-ASPL is worse than the
	// stored best (new result vs baseline).
	Regressed bool    `json:"regressed"`
	DeltaPct  float64 `json:"deltaPct"` // (candidate-best)/best × 100; 0 when first
}

// Check compares the candidate record against the best eligible record
// among the others in its cell. A candidate that is not eligible (e.g. a
// disconnected graph) is an automatic regression when any prior eligible
// record exists in its cell.
func Check(recs []Record, candidate Record, byM bool) CheckResult {
	res := CheckResult{Candidate: candidate, Cell: cellOf(&candidate, byM)}
	var best *Record
	for i := range recs {
		if recs[i].ID == candidate.ID || !eligible(&recs[i]) {
			continue
		}
		if cellOf(&recs[i], byM) != res.Cell {
			continue
		}
		if best == nil || recs[i].Metrics.HASPL < best.Metrics.HASPL {
			best = &recs[i]
		}
	}
	if best == nil {
		return res // first result in its cell always passes
	}
	b := *best
	res.Best = &b
	if !eligible(&candidate) {
		res.Regressed = true
		return res
	}
	res.DeltaPct = (candidate.Metrics.HASPL - b.Metrics.HASPL) / b.Metrics.HASPL * 100
	res.Regressed = candidate.Metrics.HASPL > b.Metrics.HASPL
	return res
}
