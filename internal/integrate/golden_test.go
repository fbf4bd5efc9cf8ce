package integrate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
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

// randomIntegrationCorpus builds a random keyed source and originating
// tables covering the regimes integration must handle: missing columns,
// nulls over source nulls (label slots), contradictions, duplicate rows,
// duplicate source keys, foreign and null keys, and numeric-text spellings
// of the same number. One corpus in three keys the source on five columns
// in permuted key order; its originating tables also splice key components
// across rows and respell numeric ones.
func randomIntegrationCorpus(rng *rand.Rand) (*table.Table, []*table.Table) {
	arity := 1
	if rng.Intn(3) == 0 {
		arity = 5
	}
	nCols := arity + 2 + rng.Intn(3)
	cols := make([]string, nCols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	src := table.New("S", cols...)
	src.Key = []int{0}
	if arity == 5 {
		src.Key = []int{3, 0, 4, 1, 2}
	}
	nRows := 4 + rng.Intn(8)
	for r := 0; r < nRows; r++ {
		row := make([]table.Value, nCols)
		kr := r
		if r > 0 && rng.Intn(8) == 0 {
			kr = rng.Intn(r) // a duplicate source key
		}
		copy(row, corpusKey(kr, arity))
		for c := arity; c < nCols; c++ {
			switch rng.Intn(5) {
			case 0:
				row[c] = table.Null
			case 1:
				row[c] = table.N(float64(r*7 + c))
			default:
				row[c] = table.S(fmt.Sprintf("v%d_%d", r, c))
			}
		}
		src.AddRow(row...)
	}

	nOrigs := 2 + rng.Intn(4)
	origs := make([]*table.Table, 0, nOrigs)
	for i := 0; i < nOrigs; i++ {
		var keep []int
		for c := 0; c < nCols; c++ {
			if c < arity || rng.Intn(3) != 0 {
				keep = append(keep, c)
			}
		}
		names := make([]string, len(keep))
		for j, c := range keep {
			names[j] = cols[c]
		}
		o := table.New(fmt.Sprintf("O%d", i), names...)
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
						row[j] = table.S("foreign")
					case c < arity && rng.Intn(12*arity) == 0:
						row[j] = table.Null
					case c < arity && arity > 1 && rng.Intn(4*arity) == 0:
						row[j] = src.Rows[rng.Intn(nRows)][c] // another row's component
					case c < arity:
						if v.Kind == table.KindNumber && rng.Intn(3) == 0 {
							v = table.Parse(fmt.Sprintf("%v.0", v.Num))
						}
						row[j] = v
					case rng.Intn(4) == 0:
						row[j] = table.Null
					case rng.Intn(5) == 0:
						row[j] = table.S("wrong" + fmt.Sprint(rng.Intn(4)))
					case v.Kind == table.KindNumber && rng.Intn(3) == 0:
						row[j] = table.Parse(fmt.Sprintf("%v.0", v.Num))
					default:
						row[j] = v
					}
				}
				o.Rows = append(o.Rows, row)
			}
		}
		origs = append(origs, o)
	}
	return src, origs
}

// writeRows feeds rows to h cell by cell, every field of every Value, so two
// row lists hash alike only when they are identical to the spelling.
func writeRows(h hash.Hash, rows []table.Row) {
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(h, "%d|%q|%x|%d;", v.Kind, v.Str, math.Float64bits(v.Num), v.ID)
		}
		h.Write([]byte{'\n'})
	}
}

// goldenIntegrate is the SHA-256 of every reclaimed table and ProjectSelect
// result TestIntegrateMatchesGolden produces. It was recorded when
// integration still ran on two key paths — canonical key strings and
// dictionary ID tuples, which agreed on every trial — so the single
// table.KeyIndex path must reproduce what both computed.
const goldenIntegrate = "a1d337cccc146e1050edab8435c7f55a940c9635609ec35e70f979bdce2f6e19"

// TestIntegrateMatchesGolden pins integration on the seeded corpora
// (arity-1 and arity-5 keys): Reclaim's columns and rows, in order, and
// both ProjectSelect forms per originating table must hash to
// goldenIntegrate, and the two ProjectSelect forms must agree.
func TestIntegrateMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	h := sha256.New()
	for trial := 0; trial < 40; trial++ {
		src, origs := randomIntegrationCorpus(rng)
		in := New(src)
		got := reclaim(t, in, origs)
		fmt.Fprintf(h, "trial %d cols %q\n", trial, got.Cols)
		writeRows(h, got.Rows)
		for i, o := range origs {
			a, b := in.ProjectSelect(o), ProjectSelect(src, o)
			if (a == nil) != (b == nil) || a != nil && !table.EqualRows(a, b) {
				t.Fatalf("trial %d orig %d: ProjectSelect forms disagree:\n%s\n%s", trial, i, a, b)
			}
			fmt.Fprintf(h, "orig %d selected %v\n", i, a != nil)
			if a != nil {
				writeRows(h, a.Rows)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenIntegrate {
		t.Fatalf("integration digest %s, golden %s", got, goldenIntegrate)
	}
}
