package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// κ, β and minimal form as they were before rows were told apart by hashes
// of their value classes: whole-table fixpoints over Row.Key deduplication.
// They are the oracle the production forms must reproduce row for row.

func complementOracle(t *Table) *Table {
	rows := make([]Row, 0, len(t.Rows))
	seen := make(map[string]bool, len(t.Rows))
	for _, r := range t.Rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			rows = append(rows, r.Clone())
		}
	}

	// Fixpoint: scan for a complementing pair, merge, rescan. Each merge
	// removes a tuple, so at most len(rows)-1 merges happen and termination
	// is guaranteed.
	for {
		merged := false
	scan:
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				if Complements(rows[i], rows[j]) {
					m := MergeComplement(rows[i], rows[j])
					rows[i] = m
					rows = append(rows[:j], rows[j+1:]...)
					merged = true
					break scan
				}
			}
		}
		if !merged {
			break
		}
	}

	out := New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	// Re-deduplicate: merges can converge to equal tuples.
	seen = make(map[string]bool, len(rows))
	for _, r := range rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

func subsumeOracle(t *Table) *Table {
	out := New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	if len(t.Rows) == 0 {
		return out
	}

	uniq := make([]Row, 0, len(t.Rows))
	seen := make(map[string]bool, len(t.Rows))
	for _, r := range t.Rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, r.Clone())
		}
	}

	alive := make([]bool, len(uniq))
	for i := range alive {
		alive[i] = true
	}
	counts := make([]int, len(uniq))
	for i, r := range uniq {
		counts[i] = r.NonNullCount()
	}
	for i := range uniq {
		if !alive[i] {
			continue
		}
		for j := range uniq {
			if i == j || !alive[j] || counts[j] <= counts[i] {
				continue
			}
			if Subsumes(uniq[j], uniq[i]) {
				alive[i] = false
				break
			}
		}
	}
	for i, r := range uniq {
		if alive[i] {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

func minimalFormOracle(t *Table) *Table {
	cur := t
	for {
		next := subsumeOracle(complementOracle(cur))
		if len(next.Rows) == len(cur.Rows) && EqualRows(next, cur) {
			return next
		}
		cur = next
	}
}

func dropDuplicatesOracle(t *Table) *Table {
	out := New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	seen := make(map[string]bool, len(t.Rows))
	for _, r := range t.Rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, r.Clone())
		}
	}
	return out
}

// sameTable reports how got differs from want — name, columns, key, row
// count, or the first cell whose Kind, Str, Num bits or ID differ — or "".
func sameTable(got, want *Table) string {
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

// checkReductions holds Complement, Subsume, DropDuplicates and minimal
// form (Subsume after Complement: one κ pass, then one β pass) on tab to
// their oracles, cell for cell and in order, and checks that tab itself is
// left as it was.
func checkReductions(t *testing.T, tab *Table) {
	t.Helper()
	before := tab.Clone()
	for _, c := range []struct {
		name      string
		got, want func(*Table) *Table
	}{
		{"minimal form", func(tab *Table) *Table { return Subsume(Complement(tab)) }, minimalFormOracle},
		{"Complement", Complement, complementOracle},
		{"Subsume", Subsume, subsumeOracle},
		{"DropDuplicates", (*Table).DropDuplicates, dropDuplicatesOracle},
	} {
		if diff := sameTable(c.got(tab), c.want(tab)); diff != "" {
			t.Fatalf("%s diverges from the unpartitioned oracle: %s\ninput:\n%s", c.name, diff, tab)
		}
	}
	if diff := sameTable(tab, before); diff != "" {
		t.Fatalf("input changed: %s", diff)
	}
}

// minimalPool is the non-key cell pool: few distinct values and many nulls,
// so rows often complement and subsume, plus NaN, ±0, numeric respellings
// and labels.
var minimalPool = []Value{
	Null, Null, Null, Null,
	N(1), Parse("1.0"), S("1.0"), S("1"),
	N(0), N(math.Copysign(0, -1)), N(math.NaN()), S("NaN"),
	Label(1), Label(2), S("x"), S("y"),
}

// minimalTable builds a table keyed on its first arity columns (in reverse
// order) with extra non-key columns: keys from a width-sized subset of
// keyPool (null left out unless nullKeys), other cells from minimalPool.
// pick(n) chooses each subset member and cell from n options.
func minimalTable(pick func(n int) int, rows, arity, extra, width int, nullKeys bool) *Table {
	pool := keyPool()
	if !nullKeys {
		pool = pool[1:]
	}
	keys := make([]Value, min(width, len(pool)))
	for i := range keys {
		keys[i] = pool[pick(len(pool))]
	}
	tab := keyedTable(rows, arity, extra, func() Value { return minimalPool[pick(len(minimalPool))] })
	for _, r := range tab.Rows {
		for c := 0; c < arity; c++ {
			r[c] = keys[pick(len(keys))]
		}
	}
	return tab
}

// TestMinimalFormMatchesUnpartitioned is the reductions' specification:
// hand-built edge cases, then random keyed tables of arity 1 and 5 over
// Value.Key's hard cases.
func TestMinimalFormMatchesUnpartitioned(t *testing.T) {
	k := func(s string) Value { return S(s) }
	cases := map[string]*Table{}
	add := func(name string, key []int, cols []string, rows ...Row) {
		tab := New(name, cols...)
		tab.Key = key
		tab.Rows = rows
		cases[name] = tab
	}
	add("nan cells", []int{0}, []string{"k", "a", "b"},
		Row{k("1"), N(math.NaN()), Null}, Row{k("1"), N(math.NaN()), Null},
		Row{k("1"), Null, N(math.NaN())}, Row{k("1"), N(math.NaN()), N(math.NaN())})
	add("null and empty text", []int{0}, []string{"k", "a"},
		Row{k("1"), Null}, Row{k("1"), S("")}, Row{k("1"), Null}, Row{k("1"), S("")})
	add("nan and inf keys", []int{0}, []string{"k", "a", "b"},
		Row{N(math.NaN()), S("x"), Null}, Row{S("NaN"), Null, S("y")},
		Row{N(math.Inf(1)), S("x"), Null}, Row{S("+Inf"), Null, S("y")})
	add("signed zero", []int{0}, []string{"k", "a", "b"},
		Row{N(0), N(math.Copysign(0, -1)), Null}, Row{N(math.Copysign(0, -1)), Null, N(0)},
		Row{Parse("-0"), N(0), N(0)})
	add("respellings", []int{1}, []string{"a", "k", "b"},
		Row{Parse("1.0"), N(1), Null}, Row{S("1"), Parse("1.0"), S("z")},
		Row{S("1.0"), S("1"), Null}, Row{N(1), Parse("1.00"), S("z")})
	add("labels", []int{0}, []string{"k", "a", "b"},
		Row{k("p"), Label(7), Null}, Row{k("p"), Null, Label(8)}, Row{k("p"), Label(7), Label(8)},
		Row{Label(3), S("x"), Null}, Row{Label(3), Null, S("y")})
	add("duplicates", []int{0}, []string{"k", "a"},
		Row{k("p"), S("x")}, Row{k("q"), S("x")}, Row{k("p"), S("x")}, Row{k("p"), Parse("2.0")}, Row{k("p"), N(2)})
	add("null key falls back", []int{0}, []string{"k", "a", "b"},
		Row{k("p"), S("x"), Null}, Row{Null, S("x"), S("y")}, Row{k("q"), S("x"), Null})
	add("keyless", nil, []string{"k", "a", "b"},
		Row{k("p"), S("x"), Null}, Row{k("q"), Null, S("y")}, Row{Null, S("x"), S("y")})
	add("later subsumer", []int{0}, []string{"k", "a", "b"},
		Row{k("q"), S("x"), Null}, Row{k("p"), S("x"), Null}, Row{k("q"), Null, S("y")}, Row{k("p"), S("x"), S("y")})
	add("arity 5", []int{4, 2, 0, 1, 3}, []string{"k0", "k1", "k2", "k3", "k4", "a", "b"},
		Row{k("a"), N(1), k("b"), k("c"), k("d"), S("x"), Null},
		Row{k("a"), N(1), k("b"), k("c"), k("e"), Null, S("y")},
		Row{k("a"), Parse("1.0"), k("b"), k("c"), k("d"), Null, S("y")},
		Row{k("a"), N(1), k("b"), k("c"), k("d"), S("x"), S("y")})
	add("empty", []int{0}, []string{"k"})
	for name, tab := range cases {
		t.Run(name, func(t *testing.T) { checkReductions(t, tab) })
	}

	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 400; trial++ {
		arity := 1
		if trial%3 == 0 {
			arity = 5
		}
		tab := minimalTable(rng.Intn, rng.Intn(30), arity, 1+rng.Intn(3), 2+rng.Intn(6), trial%4 == 0)
		checkReductions(t, tab)
	}
}

// TestReductionsUnderHashCollisions makes every row hash alike, so that
// deduplication must tell rows apart along one hash chain, and holds the
// reductions to their oracles on random keyed tables.
func TestReductionsUnderHashCollisions(t *testing.T) {
	defer func(h func(Row) uint64) { rowHash = h }(rowHash)
	rowHash = func(Row) uint64 { return 0 }
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		checkReductions(t, minimalTable(rng.Intn, rng.Intn(30), 1+trial%2, 1+rng.Intn(3), 2+rng.Intn(6), trial%4 == 0))
	}
}

// FuzzReductionsParity holds κ, β, deduplication and minimal form to their
// oracles on fuzzed keyed tables: data drives the shape, the key subset and
// every cell's pick.
func FuzzReductionsParity(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 5, 9, 9, 1, 2, 3, 3, 0, 0, 6, 7, 1, 1, 2, 2, 0, 12, 4, 4, 5})
	f.Add([]byte{4, 2, 3, 10, 11, 30, 0, 1, 0, 1, 2, 3, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 15, 14})
	f.Add([]byte{1, 0x81, 2, 1, 0, 3, 3, 1, 1, 2, 2, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		arity, extra, width := 1+int(data[0])%6, 1+int(data[1])%3, 1+int(data[2])%12
		cells := data[3:]
		next := 0
		pick := func(n int) int {
			if len(cells) == 0 {
				return 0
			}
			v := int(cells[next%len(cells)]) % n
			next++
			return v
		}
		rows := min(len(cells)/(arity+extra), 40)
		checkReductions(t, minimalTable(pick, rows, arity, extra, width, data[1]&0x80 != 0))
	})
}
