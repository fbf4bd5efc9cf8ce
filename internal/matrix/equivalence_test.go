package matrix

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gent/internal/table"
)

// corpusKey is source row r's key tuple at the given arity. Five-column keys
// repeat every component across rows — only whole tuples tell rows apart —
// and mix numbers with a string holding the key-joining control bytes.
func corpusKey(r, arity int) []table.Value {
	if arity == 1 {
		return []table.Value{table.S(fmt.Sprintf("k%d", r))}
	}
	return []table.Value{
		table.S(fmt.Sprintf("k%d", r%3)),
		table.N(float64(r / 3 % 2)),
		table.S(fmt.Sprintf("g%d", r/6)),
		table.S("a\x01b\x02"),
		table.N(float64(r % 2)),
	}
}

// corpusKeyOrder is the source key at the given arity: column 0, or the five
// leading columns in permuted order, so key positions and column positions
// differ.
func corpusKeyOrder(arity int) []int {
	if arity == 1 {
		return []int{0}
	}
	return []int{3, 0, 4, 1, 2}
}

// randomCorpus builds a random keyed source plus a candidate set covering
// the regimes traversal must handle: noisy projections, duplicate rows,
// duplicate source keys, foreign and null keys, candidates missing columns
// or the key entirely, and exact duplicates of other candidates. One corpus
// in three keys the source on five columns; its candidates also splice key
// components across rows and respell numeric ones ("1" as "1.0").
func randomCorpus(rng *rand.Rand) (*table.Table, []*table.Table) {
	arity := 1
	if rng.Intn(3) == 0 {
		arity = 5
	}
	nCols := arity + 2 + rng.Intn(4)
	cols := make([]string, nCols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	src := table.New("S", cols...)
	src.Key = corpusKeyOrder(arity)
	nRows := 4 + rng.Intn(9)
	for r := 0; r < nRows; r++ {
		row := make([]table.Value, nCols)
		kr := r
		if r > 0 && rng.Intn(8) == 0 {
			kr = rng.Intn(r) // a duplicate source key
		}
		copy(row, corpusKey(kr, arity))
		for c := arity; c < nCols; c++ {
			if rng.Intn(6) == 0 {
				row[c] = table.Null
			} else {
				row[c] = table.S(fmt.Sprintf("v%d_%d", r, c))
			}
		}
		src.AddRow(row...)
	}

	nCands := 3 + rng.Intn(8)
	cands := make([]*table.Table, 0, nCands)
	for i := 0; i < nCands; i++ {
		if len(cands) > 0 && rng.Intn(6) == 0 {
			// Exact duplicate of an earlier candidate: must never be re-picked.
			cands = append(cands, cands[rng.Intn(len(cands))].Clone())
			continue
		}
		// Random column subset; drop the key sometimes to cover the
		// cannot-align path.
		keep := []int{}
		for c := 0; c < nCols; c++ {
			if c == 0 && rng.Intn(8) == 0 {
				continue
			}
			if c < arity || rng.Intn(4) != 0 {
				keep = append(keep, c)
			}
		}
		names := make([]string, len(keep))
		for j, c := range keep {
			names[j] = cols[c]
		}
		cand := table.New(fmt.Sprintf("T%d", i), names...)
		for r := 0; r < nRows; r++ {
			if rng.Intn(4) == 0 {
				continue
			}
			copies := 1 + rng.Intn(2)
			for d := 0; d < copies; d++ {
				row := make([]table.Value, len(keep))
				for j, c := range keep {
					switch v := src.Rows[r][c]; {
					case c < arity && rng.Intn(10*arity) == 0:
						row[j] = table.S("foreign") // key not in the source
					case c < arity && rng.Intn(12*arity) == 0:
						row[j] = table.Null
					case c < arity && arity > 1 && rng.Intn(4*arity) == 0:
						row[j] = src.Rows[rng.Intn(nRows)][c] // another row's component
					case c < arity && v.Kind == table.KindNumber && rng.Intn(3) == 0:
						row[j] = table.Parse(fmt.Sprintf("%v.0", v.Num))
					case c < arity:
						row[j] = v
					case rng.Intn(4) == 0:
						row[j] = table.Null
					case rng.Intn(4) == 0:
						row[j] = table.S("wrong")
					default:
						row[j] = v
					}
				}
				cand.Rows = append(cand.Rows, row)
			}
		}
		cands = append(cands, cand)
	}
	return src, cands
}

// TestTraverseMatchesReference is the engine's equivalence oracle: on random
// corpora, under both encodings and with both a serial and a parallel pool,
// the incremental engine must return the exact pick sequence of the retained
// materialize-and-rescan reference, and the pick sequence's folded EIS must
// agree bit-for-bit.
func TestTraverseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		src, cands := randomCorpus(rng)
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			want := TraverseReference(src, cands, enc)
			for _, workers := range []int{1, 4} {
				got := traverse(t, src, cands, enc, TraverseOptions{Workers: workers})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d enc %d workers %d: picks = %v, reference = %v",
						trial, enc, workers, got, want)
				}
			}
			if len(want) == 0 {
				continue
			}
			shape := NewShape(src)
			combined := FromTable(shape, cands[want[0]], enc)
			for _, i := range want[1:] {
				combined = Combine(combined, FromTable(shape, cands[i], enc))
			}
			if eis := combined.EIS(); eis < 0 || eis > 1 {
				t.Fatalf("trial %d enc %d: folded EIS out of range: %v", trial, enc, eis)
			}
		}
	}
}

// goldenTraverse is the SHA-256 of every pick sequence and every FromTable
// matrix TestTraverseMatchesGolden produces. It was recorded when alignment
// still ran on two key paths — canonical key strings and dictionary ID
// tuples, which agreed on every trial — so the single table.KeyIndex path
// must reproduce what both computed.
const goldenTraverse = "e5c8e01e598d8ac33967dbb14b690e1c22b21e81baf20780671046bbf9d4540e"

// TestTraverseMatchesGolden pins traversal on the seeded corpora (arity-1
// and arity-5 keys): the engine's picks, serial and parallel, must equal
// TraverseReference's, and picks plus every candidate's coded tuples, per
// dense key id, must hash to goldenTraverse.
func TestTraverseMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := sha256.New()
	for trial := 0; trial < 60; trial++ {
		src, cands := randomCorpus(rng)
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			want := TraverseReference(src, cands, enc)
			for _, workers := range []int{1, 4} {
				got := traverse(t, src, cands, enc, TraverseOptions{Workers: workers})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d enc %d workers %d: picks = %v, reference = %v",
						trial, enc, workers, got, want)
				}
			}
			fmt.Fprintf(h, "trial %d enc %d picks %v\n", trial, enc, want)
			shape := NewShape(src)
			for ci, c := range cands {
				m := FromTable(shape, c, enc)
				for id := 0; id < shape.numKeys(); id++ {
					for _, tp := range m.rows[id] {
						fmt.Fprintf(h, "cand %d key %d %v %d\n", ci, id, tp.code, tp.ad)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraverse {
		t.Fatalf("traversal digest %s, golden %s", got, goldenTraverse)
	}
}

// TestDeltaScorerMatchesMaterialized pins the engine's core invariant: for
// any engine state, scoreCand is bit-identical to materializing
// Combine(combined, m) and evaluating EIS.
func TestDeltaScorerMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		src, cands := randomCorpus(rng)
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			// Twin states: the engine, and the materialized Matrix fold it
			// must stay bit-equal to.
			shape := NewShape(src)
			mats := make([]*Matrix, len(cands))
			for i, c := range cands {
				mats[i] = FromTable(shape, c, enc)
			}
			e := newEngine(context.Background(), NewShape(src), cands, enc, 1)
			e.reset(&e.cands[0])
			combined := mats[0]
			// Advance both by absorbing a random prefix of candidates.
			for i := 1; i < len(cands) && rng.Intn(2) == 0; i++ {
				e.absorb(&e.cands[i])
				combined = Combine(combined, mats[i])
			}
			scratch := make([]float64, e.numKeys)
			copy(scratch, e.contrib)
			arena := new(kernelArena)
			for i := range cands {
				want := Combine(combined, mats[i]).EIS()
				if got := e.scoreCand(&e.cands[i], scratch, arena); got != want {
					t.Fatalf("trial %d enc %d cand %d: delta score %v != materialized EIS %v",
						trial, enc, i, got, want)
				}
			}
		}
	}
}

// TestCachedADMatchesRescan: every tuple's cached α−δ — whether built by
// FromTable, or, or normalize — must equal a fresh scan of its codes.
func TestCachedADMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		src, cands := randomCorpus(rng)
		shape := NewShape(src)
		var combined *Matrix
		for _, c := range cands {
			m := FromTable(shape, c, ThreeValued)
			if combined == nil {
				combined = m
			} else {
				combined = Combine(combined, m)
			}
			for _, check := range []*Matrix{m, combined} {
				for k, list := range check.rows {
					for _, tp := range list {
						ad := 0
						for j, code := range tp.code {
							if shape.isKey[j] {
								continue
							}
							switch code {
							case 1:
								ad++
							case -1:
								ad--
							}
						}
						if tp.ad != ad {
							t.Fatalf("trial %d key %d: cached α−δ %d != rescan %d", trial, k, tp.ad, ad)
						}
					}
				}
			}
		}
	}
}
