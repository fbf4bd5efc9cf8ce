package table

import "strings"

// CommonCols returns the column names shared by a and b, in a's order.
func CommonCols(a, b *Table) []string {
	out := make([]string, 0)
	for _, c := range a.Cols {
		if b.ColIndex(c) >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// joinKey builds the canonical key of r over the column indices; it returns
// "", false when any join attribute is null (nulls never join).
func joinKey(r Row, idx []int) (string, bool) {
	var b strings.Builder
	for _, i := range idx {
		if r[i].IsNull() {
			return "", false
		}
		b.WriteString(r[i].Key())
		b.WriteByte('\x01')
	}
	return b.String(), true
}

func colIndices(t *Table, cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = t.ColIndex(c)
	}
	return idx
}

// joined lays out the result schema of a natural join: all of a's columns
// followed by b's non-shared columns.
func joinedSchema(a, b *Table, shared []string) ([]string, []int) {
	cols := append([]string(nil), a.Cols...)
	extras := make([]int, 0, len(b.Cols))
	isShared := make(map[string]bool, len(shared))
	for _, c := range shared {
		isShared[c] = true
	}
	for j, c := range b.Cols {
		if !isShared[c] {
			cols = append(cols, c)
			extras = append(extras, j)
		}
	}
	return cols, extras
}

// InnerJoin returns the natural equi-join of a and b on their shared columns.
// With no shared columns the result is empty.
func InnerJoin(a, b *Table) *Table {
	shared := CommonCols(a, b)
	cols, extras := joinedSchema(a, b, shared)
	out := New(a.Name+"⋈"+b.Name, cols...)
	if len(shared) == 0 {
		return out
	}
	ia, ib := colIndices(a, shared), colIndices(b, shared)
	index := make(map[string][]Row)
	for _, rb := range b.Rows {
		if k, ok := joinKey(rb, ib); ok {
			index[k] = append(index[k], rb)
		}
	}
	for _, ra := range a.Rows {
		k, ok := joinKey(ra, ia)
		if !ok {
			continue
		}
		for _, rb := range index[k] {
			nr := make(Row, len(cols))
			copy(nr, ra)
			for i, j := range extras {
				nr[len(a.Cols)+i] = rb[j]
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// LeftJoin returns the natural left outer join a ⟕ b.
func LeftJoin(a, b *Table) *Table {
	shared := CommonCols(a, b)
	cols, extras := joinedSchema(a, b, shared)
	out := New(a.Name+"⟕"+b.Name, cols...)
	ia, ib := colIndices(a, shared), colIndices(b, shared)
	index := make(map[string][]Row)
	if len(shared) > 0 {
		for _, rb := range b.Rows {
			if k, ok := joinKey(rb, ib); ok {
				index[k] = append(index[k], rb)
			}
		}
	}
	for _, ra := range a.Rows {
		matches := []Row(nil)
		if k, ok := joinKey(ra, ia); ok && len(shared) > 0 {
			matches = index[k]
		}
		if len(matches) == 0 {
			nr := make(Row, len(cols))
			copy(nr, ra)
			for i := len(a.Cols); i < len(cols); i++ {
				nr[i] = Null
			}
			out.Rows = append(out.Rows, nr)
			continue
		}
		for _, rb := range matches {
			nr := make(Row, len(cols))
			copy(nr, ra)
			for i, j := range extras {
				nr[len(a.Cols)+i] = rb[j]
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// FullOuterJoin returns the natural full outer join a ⟗ b.
func FullOuterJoin(a, b *Table) *Table {
	shared := CommonCols(a, b)
	cols, extras := joinedSchema(a, b, shared)
	out := New(a.Name+"⟗"+b.Name, cols...)
	ia, ib := colIndices(a, shared), colIndices(b, shared)
	index := make(map[string][]Row)
	matchedB := make(map[int]bool)
	bySlot := make(map[string][]int)
	if len(shared) > 0 {
		for bi, rb := range b.Rows {
			if k, ok := joinKey(rb, ib); ok {
				index[k] = append(index[k], rb)
				bySlot[k] = append(bySlot[k], bi)
			}
		}
	}
	for _, ra := range a.Rows {
		var matches []Row
		var slots []int
		if k, ok := joinKey(ra, ia); ok && len(shared) > 0 {
			matches, slots = index[k], bySlot[k]
		}
		if len(matches) == 0 {
			nr := make(Row, len(cols))
			copy(nr, ra)
			for i := len(a.Cols); i < len(cols); i++ {
				nr[i] = Null
			}
			out.Rows = append(out.Rows, nr)
			continue
		}
		for mi, rb := range matches {
			matchedB[slots[mi]] = true
			nr := make(Row, len(cols))
			copy(nr, ra)
			for i, j := range extras {
				nr[len(a.Cols)+i] = rb[j]
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	// Dangling b tuples: shared columns take b's values, a-only columns null.
	sharedPosInA := colIndices(a, shared)
	for bi, rb := range b.Rows {
		k, ok := joinKey(rb, ib)
		if ok && matchedB[bi] {
			continue
		}
		_ = k
		nr := make(Row, len(cols))
		for i := range nr {
			nr[i] = Null
		}
		for si, ci := range sharedPosInA {
			nr[ci] = rb[ib[si]]
		}
		for i, j := range extras {
			nr[len(a.Cols)+i] = rb[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}
