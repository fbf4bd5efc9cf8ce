package integrate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, to force row-hash collisions in package table

	"gent/internal/table"
)

// The step-by-step fold as it was before ReclaimContext kept its
// accumulator as Source key groups: every step outer-unions the whole
// accumulator with the next table, relabels all of it, and runs each guard
// over every key group of the whole table, deduplicating it after each. It
// is the oracle the production fold must reproduce row for row, spelling for
// spelling and in order.

// oracleReclaim is ReclaimContext as the whole-table fold computes it.
func oracleReclaim(in *Integrator, origs []*table.Table) *table.Table {
	src := in.src
	g := &oracleGuards{in: in, labeledSrc: oracleLabelSourceNulls(in, src)}
	kept := make([]*table.Table, 0, len(origs))
	for _, t := range origs {
		if sel := in.ProjectSelect(t); sel != nil {
			kept = append(kept, sel)
		}
	}
	if len(kept) == 0 {
		return table.New("reclaimed").PadNullColumns(src.Cols)
	}
	unioned := oracleInnerUnionGroups(kept)
	for i, t := range unioned {
		// Minimal form of the whole table, unpartitioned.
		unioned[i] = table.Subsume(table.Complement(oracleLabelSourceNulls(in, t)))
	}
	acc := unioned[0]
	for _, t := range unioned[1:] {
		acc = oracleLabelSourceNulls(in, table.OuterUnion(acc, t))
		acc = g.complement(acc)
		acc = g.subsume(acc)
	}
	if len(unioned) == 1 {
		acc = oracleLabelSourceNulls(in, acc)
		acc = g.complement(acc)
		acc = g.subsume(acc)
	}
	out := table.New("reclaimed:"+src.Name, src.Cols...)
	at := make([]int, len(src.Cols))
	for i, name := range src.Cols {
		at[i] = acc.ColIndex(name)
	}
	for _, r := range acc.Rows {
		nr := make(table.Row, len(at))
		for i, j := range at {
			if j >= 0 && !(r[j].Kind == table.KindLabel && r[j].ID >= 1 && r[j].ID <= in.nextID) {
				nr[i] = r[j]
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out.DropDuplicates()
}

// oracleLabelSourceNulls replaces, in t, every null that sits in a slot
// where the Source is also null (same key, same column) with that slot's
// label, looking each row's key up again.
func oracleLabelSourceNulls(in *Integrator, t *table.Table) *table.Table {
	src := in.src
	keyIdx, _ := in.keys.ColsIn(t)
	srcColOf := make([]int, len(t.Cols))
	for i, name := range t.Cols {
		srcColOf[i] = src.ColIndex(name)
	}
	out := table.New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	for _, r := range t.Rows {
		if id, ok := in.keys.Lookup(r, keyIdx); ok {
			srow := src.Rows[in.keys.Rep(id)]
			copied := false
			for i, v := range r {
				if sc := srcColOf[i]; sc >= 0 && v.IsNull() && srow[sc].IsNull() {
					if !copied {
						r, copied = r.Clone(), true
					}
					r[i] = in.label(id, sc)
				}
			}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// oracleInnerUnionGroups unions tables with identical column-name sets.
func oracleInnerUnionGroups(ts []*table.Table) []*table.Table {
	groups := make(map[string]*table.Table)
	var order []string
	for _, t := range ts {
		cols := append([]string(nil), t.Cols...)
		for i := 1; i < len(cols); i++ {
			for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
				cols[j], cols[j-1] = cols[j-1], cols[j]
			}
		}
		sig := strings.Join(cols, "\x01")
		if have, ok := groups[sig]; ok {
			groups[sig] = table.InnerUnion(have, t)
		} else {
			groups[sig] = t
			order = append(order, sig)
		}
	}
	out := make([]*table.Table, 0, len(order))
	for _, sig := range order {
		out = append(out, groups[sig])
	}
	return out
}

// oracleGuards runs the Figure 5 guards over whole tables.
type oracleGuards struct {
	in         *Integrator
	labeledSrc *table.Table
}

// e computes E(srow, r) = (α−δ)/n for a row r of t's columns (srcColOf
// maps them to the Source's), skipping t's key columns.
func (g *oracleGuards) e(srcColOf []int, isKey []bool, srow, r table.Row) float64 {
	nonKey := len(g.in.src.Cols) - len(g.in.src.Key)
	alpha, delta := 0, 0
	for i, v := range r {
		if isKey[i] || srcColOf[i] < 0 {
			continue
		}
		sv := srow[srcColOf[i]]
		switch {
		case sv.Equal(v):
			alpha++
		case v.IsNull():
		default:
			delta++
		}
	}
	if nonKey == 0 {
		return 1
	}
	return float64(alpha-delta) / float64(nonKey)
}

// reduceGroups runs reduce on each source-key group of t's rows (looked up
// row by row, groups in first-seen order) with the group's labeled Source
// row and its scorer, and returns the rows reduce returns, group after
// group, without duplicates.
func (g *oracleGuards) reduceGroups(t *table.Table, reduce func(e func(srow, r table.Row) float64, srow table.Row, grp []table.Row) []table.Row) *table.Table {
	in := g.in
	keyIdx, _ := in.keys.ColsIn(t)
	srcColOf := make([]int, len(t.Cols))
	for i, name := range t.Cols {
		srcColOf[i] = g.labeledSrc.ColIndex(name)
	}
	isKey := make([]bool, len(t.Cols))
	for _, k := range keyIdx {
		isKey[k] = true
	}
	e := func(srow, r table.Row) float64 { return g.e(srcColOf, isKey, srow, r) }
	var ids []int // -1 groups the rows no Source key places
	byID := make(map[int][]table.Row)
	for _, r := range t.Rows {
		id, _ := in.keys.Lookup(r, keyIdx)
		if _, seen := byID[id]; !seen {
			ids = append(ids, id)
		}
		byID[id] = append(byID[id], r)
	}
	var out []table.Row
	for _, id := range ids {
		grp := byID[id]
		if id >= 0 {
			grp = reduce(e, g.labeledSrc.Rows[in.keys.Rep(id)], grp)
		}
		out = append(out, grp...)
	}
	return (&table.Table{Name: t.Name, Cols: t.Cols, Rows: out}).DropDuplicates()
}

// complement is the guarded κ over every key group of t.
func (g *oracleGuards) complement(t *table.Table) *table.Table {
	return g.reduceGroups(t, func(e func(srow, r table.Row) float64, srow table.Row, grp []table.Row) []table.Row {
		for {
			merged := false
		scan:
			for i := 0; i < len(grp); i++ {
				for j := i + 1; j < len(grp); j++ {
					if !table.Complements(grp[i], grp[j]) {
						continue
					}
					m := table.MergeComplement(grp[i], grp[j])
					if em := e(srow, m); em > e(srow, grp[i]) && em > e(srow, grp[j]) {
						grp[i] = m
						grp = append(grp[:j], grp[j+1:]...)
						merged = true
						break scan
					}
				}
			}
			if !merged {
				return grp
			}
		}
	})
}

// subsume is the guarded β over every key group of t.
func (g *oracleGuards) subsume(t *table.Table) *table.Table {
	return g.reduceGroups(t, func(e func(srow, r table.Row) float64, srow table.Row, grp []table.Row) []table.Row {
		alive := make([]bool, len(grp))
		counts := make([]int, len(grp))
		for i, r := range grp {
			alive[i] = true
			counts[i] = r.NonNullCount()
		}
		for i := range grp {
			if !alive[i] {
				continue
			}
			for j := range grp {
				if i == j || !alive[j] || counts[j] <= counts[i] {
					continue
				}
				if table.Subsumes(grp[j], grp[i]) && e(srow, grp[j]) >= e(srow, grp[i]) {
					alive[i] = false
					break
				}
			}
		}
		kept := grp[:0]
		for i, r := range grp {
			if alive[i] {
				kept = append(kept, r)
			}
		}
		return kept
	})
}

// sameReclaimed reports how got differs from want — name, columns, key, row
// count, or the first cell whose Kind, Str, Num bits or ID differ — or "".
func sameReclaimed(got, want *table.Table) string {
	switch {
	case got.Name != want.Name:
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	case fmt.Sprint(got.Cols) != fmt.Sprint(want.Cols):
		return fmt.Sprintf("columns %q, want %q", got.Cols, want.Cols)
	case fmt.Sprint(got.Key) != fmt.Sprint(want.Key):
		return fmt.Sprintf("key %v, want %v", got.Key, want.Key)
	case len(got.Rows) != len(want.Rows):
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, r := range got.Rows {
		for c, v := range r {
			w := want.Rows[i][c]
			if v.Kind != w.Kind || v.Str != w.Str || math.Float64bits(v.Num) != math.Float64bits(w.Num) || v.ID != w.ID {
				return fmt.Sprintf("row %d col %d: %#v, want %#v", i, c, v, w)
			}
		}
	}
	return ""
}

// checkFold holds ReclaimContext to the whole-table fold on one corpus, each
// on a fresh Integrator, and checks that the originating tables are left as
// they were.
func checkFold(t *testing.T, src *table.Table, origs []*table.Table) {
	t.Helper()
	before := make([]string, len(origs))
	for i, o := range origs {
		before[i] = fmt.Sprintf("%#v", o.Rows)
	}
	got := reclaim(t, New(src), origs)
	want := oracleReclaim(New(src), origs)
	if diff := sameReclaimed(got, want); diff != "" {
		var b strings.Builder
		for _, o := range origs {
			fmt.Fprintf(&b, "%s %v\n%s\n", o.Name, o.Cols, o)
		}
		t.Fatalf("fold diverges from the whole-table oracle: %s\nsource:\n%s\norigs:\n%s\ngot:\n%s\nwant:\n%s", diff, src, b.String(), got, want)
	}
	for i, o := range origs {
		if fmt.Sprintf("%#v", o.Rows) != before[i] {
			t.Fatalf("originating table %d changed", i)
		}
	}
}

// parityKeys are key cells in several spellings of one value class
// (respelled numbers, ±0) beside classes that only their text tells apart
// (a non-finite number and its text).
var parityKeys = []table.Value{
	table.S("k1"), table.S("k2"), table.N(7), table.S("7"), table.S("7.0"), table.Parse("7.00"),
	table.N(math.NaN()), table.S("NaN"), table.N(math.Inf(1)), table.S("+Inf"),
	table.N(math.Inf(-1)), table.S("-Inf"), table.N(0), table.N(math.Copysign(0, -1)),
}

// parityCells are the non-key cells: few values, many nulls, and numbers in
// several spellings, so that rows often complement, subsume and repeat.
var parityCells = []table.Value{
	table.Null, table.Null, table.Null, table.S("a"), table.S("b"),
	table.N(1), table.Parse("1.0"), table.S("1"), table.N(math.NaN()), table.S("x"),
}

// parityCorpus builds a Source keyed on one or two columns, its key cells
// drawn from parityKeys (so Source keys repeat and respell one another), and
// two to five originating tables over random subsets of its columns. A row
// of an originating table carries a Source row's key — sometimes respelled,
// sometimes another parityKeys cell, sometimes null — and each other cell is
// the Source's, a null or a parityCells cell. pick(n) makes every choice
// from n options.
func parityCorpus(pick func(n int) int) (*table.Table, []*table.Table) {
	arity := 1 + pick(3)/2
	nCols := arity + 1 + pick(3)
	cols := make([]string, nCols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	src := table.New("S", cols...)
	src.Key = []int{0}
	if arity == 2 {
		src.Key = []int{1, 0}
	}
	cell := func(pool []table.Value) table.Value { return pool[pick(len(pool))] }
	for r, n := 0, 2+pick(7); r < n; r++ {
		row := make(table.Row, nCols)
		for c := range row {
			if c < arity {
				row[c] = cell(parityKeys)
			} else {
				row[c] = cell(parityCells)
			}
		}
		src.Rows = append(src.Rows, row)
	}
	var origs []*table.Table
	for i, n := 0, 2+pick(4); i < n; i++ {
		var keep []int
		for c := 0; c < nCols; c++ {
			if c < arity || pick(3) != 0 {
				keep = append(keep, c)
			}
		}
		if pick(2) == 0 { // column order is the table's own
			keep[0], keep[len(keep)-1] = keep[len(keep)-1], keep[0]
		}
		o := table.New(fmt.Sprintf("O%d", i), make([]string, len(keep))...)
		for j, c := range keep {
			o.Cols[j] = cols[c]
		}
		for _, srow := range src.Rows {
			for d := pick(3); d > 0; d-- {
				row := make(table.Row, len(keep))
				for j, c := range keep {
					v := srow[c]
					switch k := pick(12); {
					case c < arity && k == 0:
						v = cell(parityKeys)
					case c < arity && k == 1:
						v = table.Null
					case c < arity && k == 2 && v.Kind == table.KindNumber:
						v = table.S(v.Str)
					case c < arity:
					case k < 3:
						v = table.Null
					case k < 5:
						v = cell(parityCells)
					}
					row[j] = v
				}
				o.Rows = append(o.Rows, row)
			}
		}
		origs = append(origs, o)
	}
	return src, origs
}

// foldCase is one corpus: a Source and its originating tables.
type foldCase struct {
	src   *table.Table
	origs []*table.Table
}

// foldCases are hand-built corpora for the fold's edge cases.
func foldCases() map[string]foldCase {
	k, n := table.S, table.N
	mk := func(name string, key []int, cols []string, rows ...table.Row) *table.Table {
		t := table.New(name, cols...)
		t.Key, t.Rows = key, rows
		return t
	}
	return map[string]foldCase{
		// N(NaN) and S("NaN") are keys of different groups: A's two rows
		// sit in different groups and must neither complement nor subsume,
		// and B's S("NaN") row must fold into the second group only.
		"nan key beside its text": {
			mk("S", []int{0}, []string{"k", "a", "b"},
				table.Row{n(math.NaN()), k("a1"), table.Null}, table.Row{k("NaN"), k("a2"), k("b2")}),
			[]*table.Table{
				mk("A", nil, []string{"k", "a"}, table.Row{n(math.NaN()), table.Null}, table.Row{k("NaN"), k("x")}),
				mk("B", nil, []string{"k", "b"}, table.Row{k("NaN"), k("b2")}),
			},
		},
		// Figure 5: C's Male must not fill Smith's correct null.
		"figure 5":  {source(), []*table.Table{candA(), candB(), candC()}},
		"one table": {source(), []*table.Table{candC()}},
		"no table":  {source(), nil},
		// A's first p row is subsumed by its last, with a q row between
		// them: p joins the output after q. A's r rows repeat one row before
		// a complementing pair.
		"new group order follows its first surviving row": {
			mk("S", []int{0}, []string{"k", "a", "b", "c"},
				table.Row{k("p"), k("a1"), k("b1"), table.Null}, table.Row{k("q"), k("a2"), k("b2"), k("c2")},
				table.Row{k("r"), k("a3"), k("b3"), k("c3")}),
			[]*table.Table{
				mk("A", nil, []string{"k", "a", "b"},
					table.Row{k("p"), k("a1"), table.Null}, table.Row{k("q"), k("a2"), k("b2")}, table.Row{k("p"), k("a1"), k("b1")},
					table.Row{k("r"), k("zz"), table.Null}, table.Row{k("r"), k("zz"), table.Null},
					table.Row{k("r"), k("a3"), table.Null}, table.Row{k("r"), table.Null, k("b3")}),
				mk("B", nil, []string{"k", "c"}, table.Row{k("r"), k("c3")}, table.Row{k("p"), table.Null}, table.Row{k("s"), k("c4")}),
			},
		},
		// A's κ merge repeats its third row; left in, the repeat would
		// merge with B's second row, which the first one's merge with B's
		// first row disagrees with.
		"a merge that repeats a row": {
			mk("S", []int{0}, []string{"k", "a", "b", "c", "d", "e"},
				table.Row{k("p"), k("a1"), k("b1"), k("c1"), k("d1"), k("e1")}),
			[]*table.Table{
				mk("A", nil, []string{"k", "a", "b"},
					table.Row{k("p"), k("a1"), table.Null}, table.Row{k("p"), table.Null, k("b1")}, table.Row{k("p"), k("a1"), k("b1")}),
				mk("B", nil, []string{"k", "c", "d", "e"},
					table.Row{k("p"), k("c1"), table.Null, table.Null}, table.Row{k("p"), k("c2"), k("d1"), k("e1")}),
			},
		},
		// Groups the second table does not touch keep their rows.
		"untouched groups": {
			mk("S", []int{0}, []string{"k", "a", "b", "c"},
				table.Row{k("p"), k("a1"), table.Null, k("c1")}, table.Row{k("q"), k("a2"), k("b2"), table.Null}),
			[]*table.Table{
				mk("A", nil, []string{"k", "a"}, table.Row{k("p"), k("a1")}, table.Row{k("q"), k("a2")}, table.Row{k("q"), k("zz")}),
				mk("B", nil, []string{"k", "b"}, table.Row{k("q"), k("b2")}),
				mk("C", nil, []string{"k", "c"}, table.Row{k("p"), k("c1")}, table.Row{k("p"), k("wrong")}),
			},
		},
	}
}

// TestFoldMatchesOracle is the production fold's specification: the
// hand-built cases, the golden corpora (randomIntegrationCorpus) and
// parityCorpus's NaN, ±Inf and respelled keys.
func TestFoldMatchesOracle(t *testing.T) {
	for name, c := range foldCases() {
		t.Run(name, func(t *testing.T) { checkFold(t, c.src, c.origs) })
	}
	checkFoldTrials(t, 300)
}

// checkFoldTrials runs checkFold on trials seeded corpora of each kind.
func checkFoldTrials(t *testing.T, trials int) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < trials; trial++ {
		src, origs := randomIntegrationCorpus(rng)
		checkFold(t, src, origs)
		src, origs = parityCorpus(rng.Intn)
		checkFold(t, src, origs)
	}
}

//go:linkname rowHash gent/internal/table.rowHash
var rowHash func(table.Row) uint64

// TestFoldMatchesOracleUnderHashCollisions makes every row hash alike in
// package table, so that every deduplication by hash (the oracle's, and the
// fold's where it reduces a table whole) must tell rows apart along one
// chain, and runs the trials again.
func TestFoldMatchesOracleUnderHashCollisions(t *testing.T) {
	defer func(h func(table.Row) uint64) { rowHash = h }(rowHash)
	rowHash = func(table.Row) uint64 { return 0 }
	checkFoldTrials(t, 150)
}

// FuzzIntegrateParity holds the production fold to the whole-table oracle
// on parityCorpus corpora whose every choice the fuzzed bytes make.
func FuzzIntegrateParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 2, 5, 6, 7, 0, 1, 1, 3, 9, 9, 4, 0, 2})
	f.Add([]byte{1, 0, 6, 8, 10, 12, 0, 0, 1, 2, 3, 5, 8, 13, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := 0
		pick := func(n int) int {
			v := int(data[next%len(data)]) % n
			next++
			return v
		}
		src, origs := parityCorpus(pick)
		checkFold(t, src, origs)
	})
}
