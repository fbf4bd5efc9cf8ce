package matrix

import "math/bits"

// This file is the bound side of the engine's bound-and-prune rounds: a
// cheap, provably-admissible upper bound on how much EIS a candidate could
// still add, and the max-heap that lets a round stop scoring as soon as the
// best remaining bound cannot beat the round leader.
//
// The bound. A candidate's exact round score is
//
//	score(c) = Σ_rows contribution(key of row) / n
//
// where only the keys c touches change versus the current integration, and
// the per-key Equation 5 merge can only raise a key's contribution (or() is
// an element-wise max, so the merged α−δ dominates both inputs — the
// monotonicity TestCombineNeverDecreasesEIS pins). A key's contribution is
// capped at 1 (α−δ ≤ the non-key column count), so
//
//	score(c) ≤ mostCorrect + Σ_{id ∈ touched(c)} |rows(id)| · (1 − contrib[id]) / n
//
// with |rows(id)| the overlap cardinality cached at engine construction and
// contrib[] the per-key contributions the engine already maintains. That sum
// is the candidate's headroom — O(touched) to compute, no merge, no scan of
// the aligned tuples.
//
// Staleness. Per-key contributions only rise as winners are absorbed, so a
// headroom computed in an earlier round upper-bounds the current one. The
// heap therefore keeps possibly-stale bounds: when the top's stale bound
// already fails the threshold, every entry below it fails too, and the round
// stops without touching them. A popped entry is refreshed (still O(touched))
// before the expensive exact scoring is spent on it.
//
// The tight gate. Lifting every touched key to contribution 1 is sound but
// loose on noisy corpora, where no candidate can come near 1. So each pop
// also computes a second, tighter bound from the packed 1-code masks: a
// merged tuple's α cannot exceed the number of non-key columns holding a 1
// somewhere in the candidate's or the combined list for that key (or() is an
// element-wise max — it never creates a 1 neither side has), so the key's
// merged contribution is capped at 0.5·(1 + |ones(cand) ∪ ones(combined)| /
// nonKey) — one OR+popcount per packed word. This cap grows as winners are
// absorbed, so the tight bound is NOT monotone across rounds and never
// enters the heap; it gates only the current round, whose combined state is
// frozen. Division of labor: the loose bound orders the heap and proves the
// stop rule, the tight bound decides — after each pop — whether the exact
// scorer runs at all.
//
// Bit-exactness. Picks must stay bit-identical to TraverseReference, whose
// comparisons happen on float64 row-order sums, while the headroom sums
// per-key — the same real value can round differently. Two guards make
// pruning safe anyway: (1) admissibleMargin widens the bound by a worst-case
// summation-error envelope, so any candidate within float noise of the
// threshold is scored exactly rather than pruned; (2) a headroom of exactly
// 0 is a certificate, not an estimate — float addition of the non-negative
// headroom terms yields 0 only if every touched key already sits at
// contribution 1, in which case the merge provably reproduces the current
// contributions and the exact score equals mostCorrect bit-for-bit (such a
// candidate can never win a round, whose winner must strictly improve).
// TestBoundAdmissible and FuzzTraverseParity pin both guards.

// admissibleMargin over-approximates how far the bound's per-key float64
// summation and scoreCand's per-row summation can diverge for the same real
// value: each is an n-term sum of values in [0,1] divided by n, whose
// rounding error is classically below n·ulp(1); 16× covers the handful of
// combining ops with an order of magnitude to spare while staying far below
// any two distinct achievable scores (which differ by ≥ 1/(2·nonKey·n) in
// real arithmetic).
func admissibleMargin(rows int) float64 {
	const ulp1 = 2.220446049250313e-16
	return 16 * ulp1 * float64(rows)
}

// looseBound is the heap's bound: O(touched), no word scans.
func (e *engine) looseBound(c *candidate) float64 {
	n := len(e.rowKey)
	if n == 0 {
		return 0
	}
	loose := 0.0
	for _, id := range c.touched {
		loose += float64(e.keyCount[id]) * (1 - e.contrib[id])
	}
	return loose / float64(n)
}

// tightBound is the per-pop gate: O(touched·pwords), valid only against the
// current combined state. It caps each touched key at the 1-mask-union
// contribution (see the file comment), so it is never above looseBound. A
// tight value of exactly 0 is the same kind of certificate as a loose 0:
// float addition of its non-negative terms yields 0 only if every touched
// key's cap already equals its contribution, squeezing the merged
// contribution (cap-bounded above, monotonicity-bounded below) to bit-equal
// the cached one, so the exact score equals mostCorrect bit-for-bit.
func (e *engine) tightBound(c *candidate) float64 {
	n := len(e.rowKey)
	if n == 0 {
		return 0
	}
	s := e.shape
	tight := 0.0
	for k, id := range c.touched {
		capAd := 0
		comb := e.combinedOnes[id]
		for w, m := range c.onesOf(k, s.pwords) {
			if comb != nil {
				m |= comb[w]
			}
			capAd += bits.OnesCount64(m & s.nonkey80[w])
		}
		capC := 1.0
		if s.nonKey > 0 {
			// Same float shape as contributionPacked's formula, with the
			// integer α−δ replaced by the never-smaller integer capAd — float
			// rounding is monotone, so capC ≥ the merged contribution.
			capC = 0.5 * (1 + float64(capAd)/float64(s.nonKey))
		}
		tight += float64(e.keyCount[id]) * (capC - e.contrib[id])
	}
	return tight / float64(n)
}

// passes reports whether a candidate whose headroom bound is delta could
// still win the round against the current best score. A zero delta is the
// exact certificate described above and never passes; otherwise the
// margin-widened bound must reach best (≥, not >: a candidate whose exact
// score ties best can still win on candidate-index order).
func passes(delta, mostCorrect, best, margin float64) bool {
	if delta <= 0 {
		return false
	}
	return mostCorrect+delta+margin >= best
}

// boundEntry pairs a remaining candidate with its (possibly stale) headroom.
type boundEntry struct {
	idx   int
	delta float64
}

// boundHeap is a max-heap on (headroom, then ascending candidate index). The
// index tiebreak makes pop order — and with it batch composition and the
// scored/pruned counters — deterministic.
type boundHeap []boundEntry

func (h boundHeap) before(i, j int) bool {
	if h[i].delta != h[j].delta {
		return h[i].delta > h[j].delta
	}
	return h[i].idx < h[j].idx
}

func (h *boundHeap) push(e boundEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *boundHeap) pop() boundEntry {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h boundHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h boundHeap) down(i int) {
	n := len(h)
	for {
		best := i
		if l := 2*i + 1; l < n && h.before(l, best) {
			best = l
		}
		if r := 2*i + 2; r < n && h.before(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
