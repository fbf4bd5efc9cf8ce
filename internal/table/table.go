package table

import (
	"errors"
	"fmt"
	"strings"
)

// Row is one tuple.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Key returns a canonical form of the row usable as a map key.
func (r Row) Key() string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte('\x01')
	}
	return b.String()
}

// NonNullCount returns the number of non-null cells (labels count as
// non-null).
func (r Row) NonNullCount() int {
	n := 0
	for _, v := range r {
		if !v.IsNull() {
			n++
		}
	}
	return n
}

// Table is a named relation. Cols holds column names; Key holds the indices
// of the (possibly multi-attribute) key, and is empty for keyless data lake
// tables.
type Table struct {
	Name string
	Cols []string
	Rows []Row
	Key  []int
}

// New creates a table with the given name and columns and no rows.
func New(name string, cols ...string) *Table {
	return &Table{Name: name, Cols: append([]string(nil), cols...)}
}

// ErrShape reports a structural problem with a table.
var ErrShape = errors.New("table: malformed table")

// Validate checks structural invariants: distinct column names, rows of the
// right width, and key indices in range.
func (t *Table) Validate() error {
	seen := make(map[string]bool, len(t.Cols))
	for _, c := range t.Cols {
		if seen[c] {
			return fmt.Errorf("%w: duplicate column %q in %s", ErrShape, c, t.Name)
		}
		seen[c] = true
	}
	for i, r := range t.Rows {
		if len(r) != len(t.Cols) {
			return fmt.Errorf("%w: row %d of %s has %d cells, want %d",
				ErrShape, i, t.Name, len(r), len(t.Cols))
		}
	}
	for _, k := range t.Key {
		if k < 0 || k >= len(t.Cols) {
			return fmt.Errorf("%w: key index %d out of range in %s", ErrShape, k, t.Name)
		}
	}
	return nil
}

// AddRow appends a tuple; it panics if the width is wrong, since that is
// always a programming error.
func (t *Table) AddRow(vals ...Value) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("table: AddRow to %s: %d values for %d columns",
			t.Name, len(vals), len(t.Cols)))
	}
	t.Rows = append(t.Rows, Row(vals).Clone())
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Cols) }

// NumCells returns rows × columns, the "size" used by the output-size-ratio
// scalability metric.
func (t *Table) NumCells() int { return len(t.Rows) * len(t.Cols) }

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// HasCols reports whether the table has every named column.
func (t *Table) HasCols(names ...string) bool {
	for _, n := range names {
		if t.ColIndex(n) < 0 {
			return false
		}
	}
	return true
}

// KeyCols returns the names of the key columns.
func (t *Table) KeyCols() []string {
	out := make([]string, len(t.Key))
	for i, k := range t.Key {
		out[i] = t.Cols[k]
	}
	return out
}

// view returns a table with t's name and its own copies of t's Cols, Key and
// Rows slices, whose rows are t's rows; the Rows slice has room for n rows.
func (t *Table) view(n int) *Table {
	v := &Table{
		Name: t.Name,
		Cols: append([]string(nil), t.Cols...),
		Key:  append([]int(nil), t.Key...),
		Rows: make([]Row, len(t.Rows), max(n, len(t.Rows))),
	}
	copy(v.Rows, t.Rows)
	return v
}

// Clone deep-copies the table: unlike a view, its rows may be written.
func (t *Table) Clone() *Table {
	c := &Table{
		Name: t.Name,
		Cols: append([]string(nil), t.Cols...),
		Key:  append([]int(nil), t.Key...),
		Rows: make([]Row, len(t.Rows)),
	}
	for i, r := range t.Rows {
		c.Rows[i] = r.Clone()
	}
	return c
}

// ColumnSet returns the distinct non-null values of column i, keyed by their
// canonical form.
func (t *Table) ColumnSet(i int) map[string]bool {
	set := make(map[string]bool)
	for _, r := range t.Rows {
		if !r[i].IsNull() {
			set[r[i].Key()] = true
		}
	}
	return set
}

// RowKey extracts the canonical key-tuple of a row using the table's Key; it
// returns "" when any key attribute is null (such rows align with nothing).
func (t *Table) RowKey(r Row) string {
	if len(t.Key) == 0 {
		return ""
	}
	var b strings.Builder
	for _, k := range t.Key {
		if r[k].IsNull() {
			return ""
		}
		b.WriteString(r[k].Key())
		b.WriteByte('\x01')
	}
	return b.String()
}

// EqualRows reports whether two tables hold the same multiset of rows over
// the same column list (order-insensitive in rows, order-sensitive in
// columns).
func EqualRows(a, b *Table) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	count := make(map[string]int, len(a.Rows))
	for _, r := range a.Rows {
		count[r.Key()]++
	}
	for _, r := range b.Rows {
		count[r.Key()]--
		if count[r.Key()] < 0 {
			return false
		}
	}
	return true
}

// SameInstance reports whether two tables hold the same multiset of rows
// after reordering b's columns to match a's names; false if the column name
// sets differ.
func SameInstance(a, b *Table) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	perm := make([]int, len(a.Cols))
	for i, c := range a.Cols {
		j := b.ColIndex(c)
		if j < 0 {
			return false
		}
		perm[i] = j
	}
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	count := make(map[string]int, len(a.Rows))
	for _, r := range a.Rows {
		count[r.Key()]++
	}
	tmp := make(Row, len(a.Cols))
	for _, r := range b.Rows {
		for i, j := range perm {
			tmp[i] = r[j]
		}
		k := tmp.Key()
		count[k]--
		if count[k] < 0 {
			return false
		}
	}
	return true
}

// String renders a small table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)", t.Name, strings.Join(t.Cols, ", "))
	if len(t.Key) > 0 {
		fmt.Fprintf(&b, " key=%v", t.KeyCols())
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		b.WriteString("  " + strings.Join(parts, " | ") + "\n")
	}
	return b.String()
}
