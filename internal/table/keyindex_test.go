package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// keyPool is the value pool key cells are drawn from: Value.Key's hard
// cases — numeric-text spellings of one number, ±0, NaN, labels, nulls,
// strings holding the key-joining control bytes or mimicking key encodings —
// plus plain strings so that tables have several distinct keys.
func keyPool(extra ...string) []Value {
	pool := []Value{
		Null,
		N(1), S("1"), Parse("1.0"), Parse("1e0"), Parse("+1"),
		N(0), N(math.Copysign(0, -1)), Parse("-0"), Parse("0.00"),
		N(math.NaN()), S("NaN"),
		Label(1), Label(2), S("\x00L1"),
		S("a"), S("a\x00"), S("a\x01"), S("a\x02"), S("\x01"), S("\x00#1"), S("sa"),
		S("b"), S("c"), N(2.5), Parse("2.50"),
	}
	for _, s := range extra {
		pool = append(pool, S(s), Parse(s))
	}
	return pool
}

// keyedTable builds a table of rows × (arity + extra) cells drawn by pick,
// keyed on its first arity columns in reverse order, so key positions and
// column positions differ.
func keyedTable(rows, arity, extra int, pick func() Value) *Table {
	cols := make([]string, arity+extra)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	t := New("T", cols...)
	for k := arity - 1; k >= 0; k-- {
		t.Key = append(t.Key, k)
	}
	for r := 0; r < rows; r++ {
		row := make(Row, len(cols))
		for c := range row {
			row[c] = pick()
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// foreignView re-lays t's columns out in reverse order behind an extra
// column, without a key, and appends rows drawn by pick — a lake table
// whose rows Lookup must place by name, not by position.
func foreignView(t *Table, rows int, pick func() Value) *Table {
	cols := []string{"extra"}
	for c := len(t.Cols) - 1; c >= 0; c-- {
		cols = append(cols, t.Cols[c])
	}
	f := New("F", cols...)
	add := func(src Row) {
		row := Row{S("x")}
		for c := len(src) - 1; c >= 0; c-- {
			row = append(row, src[c])
		}
		f.Rows = append(f.Rows, row)
	}
	for _, r := range t.Rows {
		add(r)
	}
	for r := 0; r < rows; r++ {
		row := make(Row, len(t.Cols))
		for c := range row {
			row[c] = pick()
		}
		add(row)
	}
	return f
}

// checkKeyIndex holds NewKeyIndex(t) to Table.RowKey, the canonical
// definition: the same partition of t's rows, ids numbered in first-seen
// order, each id's representative the last row carrying it, and Lookup on
// the foreign table f (t's columns under other positions) agreeing with
// RowKey equality.
func checkKeyIndex(t *testing.T, tab, f *Table) {
	t.Helper()
	x := NewKeyIndex(tab)
	ids := x.RowIDs()
	byKey := make(map[string]int)
	last := make(map[int]int)
	for i, r := range tab.Rows {
		k, id := tab.RowKey(r), ids[i]
		if k == "" {
			if id != -1 {
				t.Fatalf("row %d has a null key but id %d", i, id)
			}
			continue
		}
		want, seen := byKey[k]
		if !seen {
			want = len(byKey) // first-seen order
			byKey[k] = want
		}
		if id != want {
			t.Fatalf("row %d (key %q): id %d, want %d", i, k, id, want)
		}
		last[id] = i
	}
	if x.Len() != len(byKey) {
		t.Fatalf("Len() = %d, want %d distinct keys", x.Len(), len(byKey))
	}
	for id, i := range last {
		if x.Rep(id) != i {
			t.Fatalf("Rep(%d) = %d, want last row %d", id, x.Rep(id), i)
		}
	}

	cols, ok := x.ColsIn(f)
	if !ok {
		t.Fatal("ColsIn missed a key column the foreign table has")
	}
	keyed := *f
	keyed.Key = cols
	for i, r := range f.Rows {
		id, ok := x.Lookup(r, cols)
		want, hit := byKey[keyed.RowKey(r)]
		if ok != hit || ok && id != want {
			t.Fatalf("foreign row %d %v: Lookup = (%d, %v), RowKey equality says (%d, %v)",
				i, r, id, ok, want, hit)
		}
	}
}

// TestKeyIndexMatchesRowKey is KeyIndex's specification test: random tables
// of key arity 1–6 over keyPool, checked against Table.RowKey.
func TestKeyIndexMatchesRowKey(t *testing.T) {
	// Full grids of many distinct values per position first: every tuple
	// must keep its own id however the per-position ids compose.
	for _, g := range []struct{ arity, n int }{{2, 30}, {3, 12}} {
		grid := keyedTable(0, g.arity, 1, nil)
		var fill func(row Row, p int)
		fill = func(row Row, p int) {
			if p == g.arity {
				grid.Rows = append(grid.Rows, append(row.Clone(), S("v")))
				return
			}
			for i := 0; i < g.n; i++ {
				row[p] = S(fmt.Sprint(i))
				fill(row, p+1)
			}
		}
		fill(make(Row, g.arity), 0)
		checkKeyIndex(t, grid, foreignView(grid, 0, nil))
	}

	rng := rand.New(rand.NewSource(5))
	pool := keyPool()
	for trial := 0; trial < 300; trial++ {
		arity := 1 + trial%6
		// Narrow draws make repeated keys likely even at arity 6.
		width := 2 + rng.Intn(len(pool)-1)
		pick := func() Value { return pool[rng.Intn(width)] }
		tab := keyedTable(rng.Intn(40), arity, rng.Intn(3), pick)
		checkKeyIndex(t, tab, foreignView(tab, rng.Intn(40), pick))
	}
}

func TestKeyIndexKeyless(t *testing.T) {
	tab := New("T", "a")
	tab.AddRow(S("x"))
	x := NewKeyIndex(tab)
	if x.Len() != 0 || x.RowIDs()[0] != -1 {
		t.Fatalf("keyless table indexed a key: Len %d, ids %v", x.Len(), x.RowIDs())
	}
	if _, ok := x.Lookup(Row{S("x")}, nil); ok {
		t.Error("keyless index matched a row")
	}
	if _, ok := NewKeyIndex(keyedTable(1, 2, 0, func() Value { return S("v") })).Lookup(Row{S("v")}, []int{0}); ok {
		t.Error("Lookup matched with fewer columns than the key arity")
	}
}

// FuzzKeyIndex checks checkKeyIndex's four properties on fuzzed tables: data
// drives the shape and every cell's pick from keyPool, which s1 and s2 join
// (raw and parsed).
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "k", "1.0")
	f.Add([]byte{5, 9, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}, "a\x01b", "\x00")
	f.Add([]byte{2, 200, 17, 17, 17, 3, 250, 0, 0}, "-0", "0")
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 string) {
		if len(data) < 2 {
			return
		}
		pool := keyPool(s1, s2)
		arity, extra := 1+int(data[0])%6, int(data[1])%3
		cells := data[2:]
		next := 0
		pick := func() Value {
			if len(cells) == 0 {
				return Null
			}
			v := pool[int(cells[next%len(cells)])%len(pool)]
			next++
			return v
		}
		rows := len(cells) / (arity + extra)
		tab := keyedTable(rows, arity, extra, pick)
		checkKeyIndex(t, tab, foreignView(tab, rows, pick))
	})
}
