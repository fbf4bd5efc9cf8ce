package table

import "fmt"

// Project returns π over the named columns, in the given order. Columns not
// present in t are silently skipped; the result's key is preserved when every
// key column survives.
func (t *Table) Project(cols ...string) *Table {
	idx := make([]int, 0, len(cols))
	names := make([]string, 0, len(cols))
	for _, c := range cols {
		if i := t.ColIndex(c); i >= 0 {
			idx = append(idx, i)
			names = append(names, c)
		}
	}
	out := New(t.Name, names...)
	for _, r := range t.Rows {
		nr := make(Row, len(idx))
		for j, i := range idx {
			nr[j] = r[i]
		}
		out.Rows = append(out.Rows, nr)
	}
	// Preserve the key if all its columns survive.
	key := make([]int, 0, len(t.Key))
	for _, k := range t.Key {
		j := out.ColIndex(t.Cols[k])
		if j < 0 {
			key = nil
			break
		}
		key = append(key, j)
	}
	out.Key = key
	return out
}

// Predicate decides whether a row of t qualifies for selection.
type Predicate func(t *Table, r Row) bool

// Select returns σ over the predicate.
func (t *Table) Select(pred Predicate) *Table {
	out := New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	for _, r := range t.Rows {
		if pred(t, r) {
			out.Rows = append(out.Rows, r.Clone())
		}
	}
	return out
}

// NumCompare builds a predicate comparing the named numeric column against
// bound with the given operator ("<", "<=", ">", ">=", "=", "!="). Non-number
// and null cells never match.
func NumCompare(col, op string, bound float64) Predicate {
	return func(t *Table, r Row) bool {
		i := t.ColIndex(col)
		if i < 0 || r[i].Kind != KindNumber {
			return false
		}
		x := r[i].Num
		switch op {
		case "<":
			return x < bound
		case "<=":
			return x <= bound
		case ">":
			return x > bound
		case ">=":
			return x >= bound
		case "=":
			return x == bound
		case "!=":
			return x != bound
		default:
			panic(fmt.Sprintf("table: unknown comparison operator %q", op))
		}
	}
}

// Rename returns a view of t with columns renamed per the mapping; columns
// absent from the mapping keep their names. The view has its own Cols, Key
// and Rows slices over t's rows (see the package doc), so reordering or
// extending its rows leaves t as it was; writing a cell writes t's row too.
func (t *Table) Rename(mapping map[string]string) *Table {
	out := t.view(len(t.Rows))
	for i, c := range out.Cols {
		if n, ok := mapping[c]; ok {
			out.Cols[i] = n
		}
	}
	return out
}

// DropDuplicates removes duplicate rows, keeping first occurrences (and so
// their spellings) in order. The result shares t's surviving rows.
func (t *Table) DropDuplicates() *Table {
	out := t.view(0)
	out.Rows = distinct(out.Rows)
	return out
}

// PadNullColumns returns t extended with a null column for every name in
// cols that t lacks (Algorithm 2 line 16). When t lacks none, the result is a
// view over t's rows.
func (t *Table) PadNullColumns(cols []string) *Table {
	missing := make([]string, 0)
	for _, c := range cols {
		if t.ColIndex(c) < 0 {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return t.view(len(t.Rows))
	}
	out := New(t.Name, append(append([]string(nil), t.Cols...), missing...)...)
	out.Key = append([]int(nil), t.Key...)
	for _, r := range t.Rows {
		nr := make(Row, len(out.Cols))
		copy(nr, r)
		for i := len(r); i < len(nr); i++ {
			nr[i] = Null
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// ReorderCols returns a copy of t whose columns appear in the given order;
// all named columns must exist in t.
func (t *Table) ReorderCols(cols []string) (*Table, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := t.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("table: reorder: %s has no column %q", t.Name, c)
		}
		idx[i] = j
	}
	out := New(t.Name, cols...)
	for _, r := range t.Rows {
		nr := make(Row, len(idx))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	for _, k := range t.Key {
		if j := out.ColIndex(t.Cols[k]); j >= 0 {
			out.Key = append(out.Key, j)
		}
	}
	return out, nil
}
