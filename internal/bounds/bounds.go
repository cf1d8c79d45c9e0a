// Package bounds implements the analytic results of the ORP paper:
// the Moore bound, the ASPL lower bound it induces on regular graphs,
// Theorem 1 (diameter lower bound of host-switch graphs), Theorem 2
// (h-ASPL lower bound), Equation 2 (regular host-switch graph bound), the
// paper's continuous Moore bound with real-valued degree, and the
// m_opt predictor (Section 5.3): the optimal switch count is the minimiser
// of the continuous Moore bound.
package bounds

import (
	"fmt"
	"math"

	"repro/internal/hsgraph"
)

// MooreVertexBound returns the Moore bound on the number of vertices of an
// undirected graph with maximum degree delta and diameter d:
// 1 + delta * sum_{i=0}^{d-1} (delta-1)^i. Returns math.MaxInt64 on
// overflow (the bound is then vacuous for any practical order).
func MooreVertexBound(delta, d int) int64 {
	if delta < 1 || d < 0 {
		return 1
	}
	if d == 0 {
		return 1
	}
	total := int64(1)
	layer := int64(delta)
	for i := 0; i < d; i++ {
		total += layer
		if total < 0 {
			return math.MaxInt64
		}
		if layer > math.MaxInt64/int64(delta) {
			return math.MaxInt64
		}
		layer *= int64(delta - 1)
	}
	return total
}

// ASPLLowerBoundRegular returns the Moore-style lower bound on the average
// shortest path length of a connected K-regular graph with N vertices:
// fill distance shells greedily with at most K*(K-1)^(j-1) vertices at
// distance j. It panics on N < 1; it returns +Inf when K < 2 and N is too
// large to connect (a 1-regular graph has at most 2 vertices).
func ASPLLowerBoundRegular(n, k int) float64 {
	return ContinuousASPLLowerBound(n, float64(k))
}

// ContinuousASPLLowerBound is ASPLLowerBoundRegular with a real-valued
// degree, the key ingredient of the paper's continuous Moore bound. Shell
// capacities are K*(K-1)^(j-1) with real K.
func ContinuousASPLLowerBound(n int, k float64) float64 {
	if n < 1 {
		panic(fmt.Sprintf("bounds: non-positive order %d", n))
	}
	if n <= 1 {
		return 0
	}
	if k <= 0 {
		return math.Inf(1)
	}
	if k <= 1 {
		// A graph with max degree 1 connects at most 2 vertices.
		if n == 2 {
			return 1
		}
		return math.Inf(1)
	}
	remaining := float64(n - 1)
	var total float64
	cap_ := k
	for j := 1; remaining > 0; j++ {
		take := math.Min(cap_, remaining)
		total += float64(j) * take
		remaining -= take
		cap_ *= k - 1
		if j > n { // safety: cannot need more levels than vertices
			return math.Inf(1)
		}
	}
	return total / float64(n-1)
}

// DiameterLowerBound implements Theorem 1: for any host-switch graph with
// order n and radix r, the host-to-host diameter is at least
// ceil(log_{r-1}(n-1)) + 1. Requires n >= 2 and r >= 3.
func DiameterLowerBound(n, r int) int {
	if n < 2 {
		return 0
	}
	if r < 3 {
		panic(fmt.Sprintf("bounds: radix %d < 3", r))
	}
	// e = ceil(log_{r-1}(n-1)) via repeated multiplication (avoids floating
	// point edge cases); the bound is e + 1, never below the trivial
	// host-to-host minimum of 2.
	e := 0
	reach := int64(1) // (r-1)^e
	for reach < int64(n-1) {
		e++
		if reach > math.MaxInt64/int64(r-1) {
			break
		}
		reach *= int64(r - 1)
	}
	if e+1 < 2 {
		return 2
	}
	return e + 1
}

// HASPLLowerBound implements Theorem 2: the lower bound on the h-ASPL of
// any host-switch graph with order n and radix r.
func HASPLLowerBound(n, r int) float64 {
	if n < 2 {
		return 0
	}
	if r < 3 {
		panic(fmt.Sprintf("bounds: radix %d < 3", r))
	}
	dMinus := DiameterLowerBound(n, r)
	// (r-1)^(dMinus-1), guarding overflow (then n != pow+1 surely).
	powD1 := powInt64(int64(r-1), dMinus-1)
	if powD1 > 0 && int64(n) == powD1+1 {
		return float64(dMinus)
	}
	powD2 := powInt64(int64(r-1), dMinus-2)
	numer := int64(n-1) - powD2
	// alpha = (r-1)^(D-2) - ceil((n-1-(r-1)^(D-2)) / (r-2))
	alpha := powD2 - ceilDiv(numer, int64(r-2))
	if alpha < 0 {
		alpha = 0
	}
	return float64(dMinus) - float64(alpha)/float64(n-1)
}

func powInt64(base int64, exp int) int64 {
	if exp < 0 {
		return 0
	}
	out := int64(1)
	for i := 0; i < exp; i++ {
		if out > math.MaxInt64/base {
			return math.MaxInt64
		}
		out *= base
	}
	return out
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("bounds: non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// RegularHASPLBound implements Equation 2 for a k-regular host-switch
// graph: with m switches each carrying exactly n/m hosts and switch degree
// K = r - n/m, the h-ASPL is at least
// M(m, r - n/m) * (mn - n) / (mn - m) + 2 where M is the ASPL Moore bound.
// Requires m | n. Returns +Inf when the configuration cannot connect.
func RegularHASPLBound(n, m, r int) (float64, error) {
	if m < 1 || n%m != 0 {
		return 0, fmt.Errorf("bounds: Equation 2 requires m | n (n=%d, m=%d)", n, m)
	}
	if m == 1 {
		if n > r {
			return math.Inf(1), nil
		}
		return 2, nil
	}
	k := r - n/m
	if k < 1 {
		return math.Inf(1), nil
	}
	aspl := ASPLLowerBoundRegular(m, k)
	return hsgraph.RegularHASPLFromSwitchASPL(aspl, n, m), nil
}

// ContinuousMooreHASPL is the paper's continuous Moore bound: Equation 2
// with a real-valued switch degree K = r - n/m, defined for every integer
// m (not only divisors of n). Returns +Inf for infeasible m.
func ContinuousMooreHASPL(n, m, r int) float64 {
	if m < 1 {
		return math.Inf(1)
	}
	if m == 1 {
		if n > r {
			return math.Inf(1)
		}
		return 2
	}
	k := float64(r) - float64(n)/float64(m)
	if k <= 1 {
		return math.Inf(1)
	}
	aspl := ContinuousASPLLowerBound(m, k)
	return hsgraph.RegularHASPLFromSwitchASPL(aspl, n, m)
}

// OptimalSwitchCount returns m_opt, the switch count minimising the
// continuous Moore bound for order n and radix r (Section 5.3's predictor
// of the best number of switches), together with the bound's value there.
// Only feasible m (those admitting a connected host-switch graph) are
// considered. The search range is [1, maxM]; pass maxM <= 0 for the
// default of n.
func OptimalSwitchCount(n, r int, maxM int) (mOpt int, bound float64) {
	if maxM <= 0 {
		maxM = n
	}
	bound = math.Inf(1)
	mOpt = 1
	for m := 1; m <= maxM; m++ {
		if !hsgraph.Feasible(n, m, r) {
			continue
		}
		b := ContinuousMooreHASPL(n, m, r)
		if b < bound {
			bound = b
			mOpt = m
		}
	}
	return mOpt, bound
}

// CliqueFeasible reports whether the switches can form an m-clique with
// all n hosts attached: the Section 3.2 condition n <= m(r-m+1) together
// with each switch having m-1 switch ports available (m-1 < r).
func CliqueFeasible(n, m, r int) bool {
	if m < 1 || r < m-1 {
		return false
	}
	return n <= m*(r-m+1)
}

// MinCliqueSwitches returns the smallest m such that an m-clique of
// radix-r switches can host n hosts, or 0 if none exists (Appendix,
// Lemma 3: the optimal clique host-switch graph uses the minimum m).
func MinCliqueSwitches(n, r int) int {
	for m := 1; m <= r+1; m++ {
		if CliqueFeasible(n, m, r) {
			return m
		}
	}
	return 0
}
