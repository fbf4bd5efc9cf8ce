package metrics

import (
	"math/rand"
	"testing"

	"gent/internal/table"
)

// recallPrecisionOracle is recallPrecisionOf as it was before tuples were
// told apart within key groups: sets of Row.Key strings. The production
// form must reproduce it exactly.
func recallPrecisionOracle(a *Alignment) (rec, pre float64) {
	sSet := make(map[string]bool, len(a.Source.Rows))
	for _, r := range a.Source.Rows {
		sSet[r.Key()] = true
	}
	tSet := make(map[string]bool, len(a.Reclaimed.Rows))
	for _, r := range a.Reclaimed.Rows {
		tSet[r.Key()] = true
	}
	inter := 0
	for k := range sSet {
		if tSet[k] {
			inter++
		}
	}
	if len(sSet) > 0 {
		rec = float64(inter) / float64(len(sSet))
	}
	if len(tSet) > 0 {
		pre = float64(inter) / float64(len(tSet))
	}
	return rec, pre
}

// recallPool holds the cells of recallTables: nulls, respellings of one
// number, which share a value class, and a few strings.
var recallPool = []table.Value{
	table.Null, table.S("7"), table.S("7.0"), table.N(7), table.Parse("7.00"),
	table.S("a"), table.S("b"), table.N(8),
}

// recallTables builds a Source keyed on one or two columns and a reclaimed
// table over its columns, in another order when shuffle is set: each
// reclaimed row copies a Source row (often), respells or nulls some of its
// cells, or is drawn from recallPool whole, so that keys repeat, go null
// and fall outside the Source, and rows repeat in several spellings.
func recallTables(rng *rand.Rand, shuffle bool) (s, t *table.Table) {
	arity := 1 + rng.Intn(2)
	cols := []string{"k0", "k1", "a", "b"}[2-arity:]
	s = table.New("S", cols...)
	s.Key = []int{0}
	if arity == 2 {
		s.Key = []int{1, 0}
	}
	cell := func() table.Value { return recallPool[rng.Intn(len(recallPool))] }
	for i, n := 0, rng.Intn(12); i < n; i++ {
		r := make(table.Row, len(cols))
		for c := range r {
			r[c] = cell()
		}
		s.Rows = append(s.Rows, r)
	}
	tcols := append([]string(nil), cols...)
	if shuffle {
		rng.Shuffle(len(tcols), func(i, j int) { tcols[i], tcols[j] = tcols[j], tcols[i] })
	}
	t = table.New("T", tcols...)
	for i, n := 0, rng.Intn(16); i < n; i++ {
		r := make(table.Row, len(tcols))
		var from table.Row
		if len(s.Rows) > 0 && rng.Intn(3) > 0 {
			from = s.Rows[rng.Intn(len(s.Rows))]
		}
		for c, name := range tcols {
			switch {
			case from == nil || rng.Intn(5) == 0:
				r[c] = cell()
			default:
				r[c] = from[s.ColIndex(name)]
			}
		}
		t.Rows = append(t.Rows, r)
	}
	return s, t
}

// TestRecallPrecisionMatchesOracle holds recallPrecisionOf to the Row.Key
// string sets with ==, on random tables with null and foreign keys,
// duplicate rows and respelled numbers.
func TestRecallPrecisionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		s, tt := recallTables(rng, trial%2 == 1)
		a := Align(s, tt)
		rec, pre := recallPrecisionOf(a)
		wantRec, wantPre := recallPrecisionOracle(a)
		if rec != wantRec || pre != wantPre {
			t.Fatalf("trial %d: recall, precision = %v, %v; oracle %v, %v\nS:\n%s\nT:\n%s", trial, rec, pre, wantRec, wantPre, s, tt)
		}
	}
}
