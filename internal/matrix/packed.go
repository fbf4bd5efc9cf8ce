package matrix

import "math/bits"

// This file is the bit-packed form of the Equation 5 kernel. The traversal
// engine stores every aligned tuple's int8 codes packed 8-per-uint64 (one
// byte per column: 0x01 match, 0x00 nullified, 0xFF contradiction) and runs
// conflict detection, the logical-OR merge, and the α−δ count as branchless
// word-at-a-time SWAR ops. The kernel makes exactly the decisions the
// unpacked conflicts/or/normalize make — same greedy pairing, same fixpoint,
// same cached α−δ — so the engine's scores stay bit-identical to
// TraverseReference's; only the per-column work shrinks by 8×.

const (
	packedLo7 = 0x7f7f7f7f7f7f7f7f
	packedHi  = 0x8080808080808080
	packedOne = 0x0101010101010101
)

// ptuple is one aligned coded tuple in packed form: column c's code lives in
// byte c&7 of words[c>>3]. Padding bytes past the column count stay 0x00
// (nullified), which is inert under every kernel op. ad caches α−δ over
// non-key columns, exactly as tuple.ad does.
type ptuple struct {
	words []uint64
	ad    int
}

// nonzero80 returns 0x80 in every byte of v that is non-zero. The per-byte
// add (v&lo7)+lo7 sets a byte's high bit iff its low 7 bits are non-zero and
// cannot carry across bytes (0x7f+0x7f < 0x100), so the mask is exact.
func nonzero80(v uint64) uint64 {
	return (((v & packedLo7) + packedLo7) | v) & packedHi
}

// one80 returns 0x80 in every byte of v equal to 0x01 (a match code).
func one80(v uint64) uint64 {
	return ^nonzero80(v^packedOne) & packedHi
}

// fullBytes expands a 0x80-flag mask to 0xFF in each flagged byte. The
// multiply is carry-free: each 0x01 flag contributes 0xFF confined to its own
// byte, and distinct bytes cannot overlap.
func fullBytes(m uint64) uint64 {
	return (m >> 7) * 0xff
}

// orOnes ORs the 0x80-flag 1-code masks of every tuple in list into m, a
// pwords-long mask, and returns m: bit 7 of byte c&7 of word c>>3 is set iff
// some tuple codes column c as a match. Since or() is an element-wise max,
// any or-merge of any subset of list codes a 1 only where this mask is
// flagged — the fact the tight pruning bound rests on (see bound.go).
func orOnes(m []uint64, list []ptuple) []uint64 {
	for _, t := range list {
		for w, v := range t.words {
			m[w] |= one80(v)
		}
	}
	return m
}

// packedConflicts reports ∃ column: a ≠ b with both non-zero — bit-for-bit
// the unpacked conflicts predicate, one word (8 columns) per step.
func packedConflicts(a, b []uint64) bool {
	for i := range a {
		x, y := a[i], b[i]
		if nonzero80(x)&nonzero80(y)&nonzero80(x^y) != 0 {
			return true
		}
	}
	return false
}

// packedOr merges two packed tuples element-wise with max over {-1, 0, 1}
// (1 if either side matches, else 0 unless both contradict), computing the
// merged α−δ from the same flag masks: +popcount of match flags, −popcount
// of contradiction flags, restricted to non-key columns. Identical to the
// unpacked or(). The merged words come from ar when non-nil (scratch scoring)
// and the heap otherwise (absorbing a round winner).
func (s *Shape) packedOr(ar *kernelArena, a, b ptuple) ptuple {
	var dst []uint64
	if ar != nil {
		dst = ar.allocWords(s.pwords)
	} else {
		dst = make([]uint64, s.pwords)
	}
	ad := 0
	for i := range dst {
		x, y := a.words[i], b.words[i]
		one := one80(x) | one80(y)
		neg := x & y & packedHi
		dst[i] = (one >> 7) | fullBytes(neg)
		nk := s.nonkey80[i]
		ad += bits.OnesCount64(one&nk) - bits.OnesCount64(neg&nk)
	}
	return ptuple{words: dst, ad: ad}
}

// combinePacked is combineKey on packed tuples: each incoming tuple joins the
// first non-conflicting partner, conflicting tuples stay separate, one
// normalization pass re-merges to fixpoint. Decision-for-decision identical
// to combineKey, so packed and unpacked integrations can never diverge. With
// a non-nil arena the returned list and its merged tuples are scratch, valid
// until the arena's next reset; unmerged input tuples are shared either way.
func (s *Shape) combinePacked(ar *kernelArena, alist, blist []ptuple) []ptuple {
	var cur []ptuple
	if ar != nil {
		cur = append(ar.tups[:0], alist...)
	} else {
		cur = make([]ptuple, len(alist), len(alist)+len(blist))
		copy(cur, alist)
	}
	for i := range blist {
		bt := blist[i]
		merged := false
		for j := range cur {
			if !packedConflicts(cur[j].words, bt.words) {
				cur[j] = s.packedOr(ar, cur[j], bt)
				merged = true
				break
			}
		}
		if !merged {
			cur = append(cur, bt)
		}
	}
	cur = s.normalizePacked(ar, cur)
	if ar != nil {
		// Recycle the (possibly regrown) tuple buffer; the caller consumes the
		// returned list before the arena's next use.
		ar.tups = cur[:0]
	}
	return cur
}

// normalizePacked mirrors normalize: deduplicate and re-merge non-conflicting
// tuples to fixpoint, in the same scan order.
func (s *Shape) normalizePacked(ar *kernelArena, list []ptuple) []ptuple {
	if len(list) <= 1 {
		return list
	}
	for {
		merged := false
	scan:
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if !packedConflicts(list[i].words, list[j].words) {
					list[i] = s.packedOr(ar, list[i], list[j])
					list = append(list[:j], list[j+1:]...)
					merged = true
					break scan
				}
			}
		}
		if !merged {
			break
		}
	}
	return list
}

// contributionPacked is contribution over packed tuples. Only the cached α−δ
// enters Equation 3, and packed tuples carry the same integer α−δ as their
// unpacked forms, so the float arithmetic — and therefore every pick — is
// bit-identical.
func (s *Shape) contributionPacked(list []ptuple) float64 {
	if len(list) == 0 {
		return 0
	}
	best := -1.0
	for i := range list {
		e := 1.0
		if s.nonKey > 0 {
			e = float64(list[i].ad) / float64(s.nonKey)
		}
		if e > best {
			best = e
		}
	}
	return 0.5 * (1 + best)
}

// kernelArena is per-worker scratch for delta scoring: merged tuples are
// throwaway (only their contribution survives the round), so their words come
// from a reusable buffer instead of the heap. reset recycles everything
// allocated since the last reset; slices handed out earlier in the same
// scoring step stay valid because an exhausted buffer is replaced, not grown
// in place.
type kernelArena struct {
	words []uint64
	off   int
	tups  []ptuple
}

func (a *kernelArena) reset() { a.off = 0 }

// allocWords hands out n words of scratch. Replacing the buffer on overflow
// (rather than reallocating in place) keeps previously returned slices alive
// for the remainder of the scoring step.
func (a *kernelArena) allocWords(n int) []uint64 {
	if a.off+n > len(a.words) {
		size := 2 * len(a.words)
		if size < n+1024 {
			size = n + 1024
		}
		a.words = make([]uint64, size)
		a.off = 0
	}
	w := a.words[a.off : a.off+n : a.off+n]
	a.off += n
	return w
}
