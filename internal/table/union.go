package table

// SameSchema reports whether two tables have the same column-name set
// (order-insensitive), the precondition for inner union.
func SameSchema(a, b *Table) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for _, c := range a.Cols {
		if b.ColIndex(c) < 0 {
			return false
		}
	}
	return true
}

// InnerUnion returns a ∪ b for tables with equal column-name sets; b's
// columns are permuted to a's order. The result shares a's rows, and b's when
// b's columns are already in a's order (see the package doc). It panics if
// the schemas differ, since callers must check SameSchema first.
func InnerUnion(a, b *Table) *Table {
	if !SameSchema(a, b) {
		panic("table: InnerUnion on different schemas")
	}
	out := a.view(len(a.Rows) + len(b.Rows))
	out.Name = a.Name + "∪" + b.Name
	perm := make([]int, len(a.Cols))
	inOrder := true
	for i, c := range a.Cols {
		perm[i] = b.ColIndex(c)
		inOrder = inOrder && perm[i] == i
	}
	if inOrder {
		out.Rows = append(out.Rows, b.Rows...)
		return out
	}
	for _, r := range b.Rows {
		nr := make(Row, len(a.Cols))
		for i, j := range perm {
			nr[i] = r[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// OuterUnion returns a ⊎ b: the union of both column sets, with tuples padded
// by nulls on columns they lack. Unionable columns are matched by name (the
// paper assumes schemas are aligned so unionable columns share names). The
// operator is commutative and associative up to column order and row
// multiset.
func OuterUnion(a, b *Table) *Table {
	cols := append([]string(nil), a.Cols...)
	for _, c := range b.Cols {
		if a.ColIndex(c) < 0 {
			cols = append(cols, c)
		}
	}
	out := New(a.Name+"⊎"+b.Name, cols...)
	for _, r := range a.Rows {
		nr := make(Row, len(cols))
		copy(nr, r)
		for i := len(r); i < len(nr); i++ {
			nr[i] = Null
		}
		out.Rows = append(out.Rows, nr)
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		pos[i] = b.ColIndex(c)
	}
	for _, r := range b.Rows {
		nr := make(Row, len(cols))
		for i, j := range pos {
			if j >= 0 {
				nr[i] = r[j]
			} else {
				nr[i] = Null
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// OuterUnionAll folds OuterUnion over the list; it returns an empty table for
// no input.
func OuterUnionAll(ts []*Table) *Table {
	if len(ts) == 0 {
		return New("empty")
	}
	acc := ts[0].Clone()
	for _, t := range ts[1:] {
		acc = OuterUnion(acc, t)
	}
	return acc
}
