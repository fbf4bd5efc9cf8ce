// Package matrix implements Gen-T's Matrix Traversal (Section V-A2/3): a
// candidate table is encoded as a three-valued alignment matrix against the
// Source Table (Equation 4), integration is simulated by combining matrices
// with a contradiction-aware logical OR (Equation 5), and Algorithm 1
// greedily selects the subset of candidates — the originating tables — whose
// simulated integration maximizes the EIS score, all without performing a
// single real table integration.
//
// Traversal runs on an incremental, parallel, bound-and-prune engine (see
// traverse.go): a candidate is scored by recomputing only the source keys it
// touches against the current combined matrix — losing candidates never
// materialize a merged matrix — and each greedy round scores only the
// candidates whose admissible EIS-delta upper bound (bound.go) could still
// beat the round leader, skipping the rest from a max-heap of stale bounds.
// The exact scores that do run use a bit-packed SWAR form of the Equation 5
// kernel (packed.go). The engine is pick-for-pick identical to the retained
// materialize-and-rescan reference implementation (TraverseReference).
//
// Matrices address aligned tuples by dense source-key id: the Source's
// table.KeyIndex numbers its key tuples, and a candidate row aligns by
// looking its key cells up there — a source-local key space, so traversal
// needs no value dictionary.
package matrix

import "gent/internal/table"

// Encoding selects the matrix value domain.
type Encoding int

const (
	// ThreeValued encodes match = 1, nullified = 0, contradiction = -1
	// (Equation 4) — Gen-T's encoding.
	ThreeValued Encoding = iota
	// TwoValued collapses nullified and contradicting cells to 0 — the
	// strawman of Section V-A2, kept for the ablation study.
	TwoValued
)

// Shape carries the Source Table facts every matrix shares, including the
// dense source-key id space matrices are addressed by.
type Shape struct {
	Src *table.Table
	// isKey flags the Source's key columns, column-aligned with Src.Cols.
	isKey  []bool
	nonKey int
	// keys numbers the Source's key tuples: each source row's dense key id
	// (-1 when its key contains a null — such rows align with nothing), each
	// id's representative row (the last row carrying it), and candidate-row
	// alignment by Lookup.
	keys *table.KeyIndex
	// pwords is the packed width: aligned tuples pack one byte per column,
	// 8 columns per uint64 (see packed.go).
	pwords int
	// nonkey80[w] carries the 0x80 flag in every byte of word w that holds a
	// non-key column — the mask the packed kernel counts α−δ through.
	nonkey80 []uint64
}

// NewShape prepares the matrix shape for a Source Table, which must have a
// key.
func NewShape(src *table.Table) *Shape { return newShape(src, table.NewKeyIndex(src)) }

// newShape is NewShape over keys, an index already built over src.
func newShape(src *table.Table, keys *table.KeyIndex) *Shape {
	s := &Shape{Src: src, isKey: make([]bool, len(src.Cols)), keys: keys}
	for _, k := range src.Key {
		s.isKey[k] = true
	}
	s.nonKey = len(src.Cols) - len(src.Key)
	s.pwords = (len(src.Cols) + 7) / 8
	s.nonkey80 = make([]uint64, s.pwords)
	for c := range src.Cols {
		if !s.isKey[c] {
			s.nonkey80[c>>3] |= 0x80 << ((c & 7) * 8)
		}
	}
	return s
}

// numKeys returns the size of the dense source-key id space.
func (s *Shape) numKeys() int { return s.keys.Len() }

// align maps a candidate table's columns onto the Source's: colMap[j] is the
// candidate column holding source column j (-1 when absent), keyMap the
// candidate's key columns in key order; ok is false when the candidate lacks
// a key column and so cannot align.
func (s *Shape) align(cand *table.Table) (colMap, keyMap []int, ok bool) {
	keyMap, ok = s.keys.ColsIn(cand)
	if !ok {
		return nil, nil, false
	}
	colMap = make([]int, len(s.Src.Cols))
	for i, name := range s.Src.Cols {
		colMap[i] = cand.ColIndex(name)
	}
	return colMap, keyMap, true
}

// tuple is one aligned coded tuple: the per-column codes of Equation 4 plus
// the cached α−δ count over non-key columns, computed once when the tuple is
// built so EIS evaluation never rescans the int8 codes. Tuples are immutable
// after construction, which is what lets combined matrices share them and
// the engine score candidates concurrently.
type tuple struct {
	code []int8
	// ad is α−δ: matches minus contradictions over non-key columns.
	ad int
}

// Matrix is the dictionary encoding of Section V-A3: each dense source-key
// id maps to the list of aligned coded tuples.
type Matrix struct {
	shape *Shape
	rows  map[int][]tuple
}

// FromTable aligns a candidate table (already renamed to the Source schema
// and containing the Source key columns) and encodes it per Equation 4.
// Candidate rows whose key does not appear in the Source are ignored — they
// can contribute nothing to reclamation.
func FromTable(shape *Shape, cand *table.Table, enc Encoding) *Matrix {
	m := &Matrix{shape: shape, rows: make(map[int][]tuple)}
	src := shape.Src
	colMap, keyMap, ok := shape.align(cand)
	if !ok {
		return m // cannot align without the key
	}
	for _, r := range cand.Rows {
		id, ok := shape.keys.Lookup(r, keyMap)
		if !ok {
			continue
		}
		srow := src.Rows[shape.keys.Rep(id)]
		code := make([]int8, len(src.Cols))
		ad := 0
		for j := range src.Cols {
			var cv table.Value
			if colMap[j] >= 0 {
				cv = r[colMap[j]]
			} else {
				cv = table.Null
			}
			switch {
			case srow[j].Equal(cv):
				code[j] = 1
				if !shape.isKey[j] {
					ad++
				}
			case !srow[j].IsNull() && cv.IsNull():
				code[j] = 0
			default:
				// Contradiction: differing non-nulls, or a non-null where
				// the Source has a (correct) null.
				if enc == ThreeValued {
					code[j] = -1
					if !shape.isKey[j] {
						ad--
					}
				} else {
					code[j] = 0
				}
			}
		}
		m.rows[id] = appendCoded(m.rows[id], tuple{code: code, ad: ad})
	}
	return m
}

// appendCoded adds a coded tuple, skipping exact duplicates.
func appendCoded(list []tuple, t tuple) []tuple {
	for _, have := range list {
		if equalCodes(have.code, t.code) {
			return list
		}
	}
	return append(list, t)
}

func equalCodes(a, b []int8) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// conflicts reports ∃j: t1[j] ≠ t2[j] with both non-zero — the Equation 5
// condition under which tuples stay separate.
func conflicts(a, b []int8) bool {
	for i := range a {
		if a[i] != 0 && b[i] != 0 && a[i] != b[i] {
			return true
		}
	}
	return false
}

// or merges two coded tuples element-wise with max (logical OR on truth
// values), computing the merged tuple's α−δ in the same scan.
func or(a, b tuple, isKey []bool) tuple {
	code := make([]int8, len(a.code))
	ad := 0
	for i := range a.code {
		v := a.code[i]
		if b.code[i] > v {
			v = b.code[i]
		}
		code[i] = v
		if !isKey[i] {
			switch v {
			case 1:
				ad++
			case -1:
				ad--
			}
		}
	}
	return tuple{code: code, ad: ad}
}

// combineKey merges one candidate's aligned tuples for a single source key
// into a copy of the accumulator's list, per Equation 5: each incoming tuple
// joins the first non-conflicting partner (greedy pairing), conflicting
// tuples stay separate, and one normalization pass re-merges to fixpoint.
// This is the per-key kernel shared by Combine and the engine's delta
// scorer, so the two can never diverge.
func combineKey(alist, blist []tuple, isKey []bool) []tuple {
	cur := make([]tuple, len(alist), len(alist)+len(blist))
	copy(cur, alist)
	for _, bt := range blist {
		merged := false
		for i, at := range cur {
			if !conflicts(at.code, bt.code) {
				cur[i] = or(at, bt, isKey)
				merged = true
				break
			}
		}
		if !merged {
			cur = append(cur, bt)
		}
	}
	// Merging can create duplicates or newly-mergeable pairs; one
	// normalization pass keeps lists small.
	return normalize(cur, isKey)
}

// Combine simulates the outer union + subsumption + complementation of two
// (partial) integrations per Equation 5: conflicting tuples are kept
// separate, everything else merges by logical OR. Pairing is greedy (first
// non-conflicting partner), so Combine is order-sensitive on conflicting
// inputs; Algorithm 1 applies it as a left fold in pick order. The EIS of
// the result never decreases relative to either input, which is what the
// greedy traversal's soundness rests on.
func Combine(a, b *Matrix) *Matrix {
	out := &Matrix{shape: a.shape, rows: make(map[int][]tuple, len(a.rows)+len(b.rows))}
	for k, list := range a.rows {
		if _, touched := b.rows[k]; !touched {
			// Tuples and settled lists are immutable, so untouched keys are
			// shared rather than copied.
			out.rows[k] = list
		}
	}
	for k, blist := range b.rows {
		out.rows[k] = combineKey(a.rows[k], blist, a.shape.isKey)
	}
	return out
}

// normalize deduplicates and re-merges non-conflicting tuples to fixpoint.
func normalize(list []tuple, isKey []bool) []tuple {
	if len(list) <= 1 {
		return list
	}
	for {
		merged := false
	scan:
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if !conflicts(list[i].code, list[j].code) {
					list[i] = or(list[i], list[j], isKey)
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

// contribution is one source row's term of Equation 3: 0.5·(1+E) for the
// best aligned tuple, using the tuples' cached α−δ counts; 0 when nothing
// aligned.
func (s *Shape) contribution(list []tuple) float64 {
	if len(list) == 0 {
		return 0
	}
	best := -1.0
	for _, t := range list {
		e := 1.0
		if s.nonKey > 0 {
			e = float64(t.ad) / float64(s.nonKey)
		}
		if e > best {
			best = e
		}
	}
	return 0.5 * (1 + best)
}

// EIS evaluates the simulated integration exactly as evaluateSimilarity()
// does: per source row, the best aligned tuple's error-aware similarity with
// 1s as α and -1s as δ, averaged into Equation 3.
func (m *Matrix) EIS() float64 {
	src := m.shape.Src
	if len(src.Rows) == 0 {
		return 1
	}
	sum := 0.0
	for _, id := range m.shape.keys.RowIDs() {
		var list []tuple
		if id >= 0 {
			list = m.rows[id]
		}
		sum += m.shape.contribution(list)
	}
	return sum / float64(len(src.Rows))
}
