package table

// Subsumes reports whether t1 subsumes t2 (same schema assumed): wherever
// both are non-null they agree, t1 is non-null everywhere t2 is, and t1 has
// strictly more non-null cells.
func Subsumes(t1, t2 Row) bool {
	strict := false
	for i := range t1 {
		switch {
		case t2[i].IsNull():
			if !t1[i].IsNull() {
				strict = true
			}
		case t1[i].IsNull():
			return false // t2 has a value where t1 has none
		case !t1[i].Equal(t2[i]):
			return false
		}
	}
	return strict
}

// Subsume applies β: repeatedly discard tuples subsumed by another tuple, and
// collapse exact duplicates to one copy. The result contains no subsumable
// pair.
func Subsume(t *Table) *Table {
	// Deduplicate first; β removes duplicates implicitly (a duplicate is the
	// degenerate "equal on all shared non-nulls, nothing extra" case the
	// paper folds into minimal form).
	x := new(reducer)
	return reduced(t, t.Rows, x.subsume(t.Rows, x.distinct(t.Rows, slots(len(t.Rows)))))
}

// subsume applies β to the distinct rows at the ascending slots at, visiting
// them in slot order: a row is dropped when a row not yet dropped subsumes
// it. Only a row with strictly more non-null cells can subsume another, so a
// pair is compared only when its count says it might; a dropped row's count
// is set to -1, which also rules it out as a subsumer. It returns the
// surviving slots, ascending.
func (x *reducer) subsume(rows []Row, at []int) []int {
	counts := x.counts[:0]
	for _, i := range at {
		counts = append(counts, rows[i].NonNullCount())
	}
	x.counts = counts
	for a, i := range at {
		for b, j := range at {
			if counts[b] > counts[a] && Subsumes(rows[j], rows[i]) {
				counts[a] = -1
				break
			}
		}
	}
	out := at[:0]
	for a, i := range at {
		if counts[a] >= 0 {
			out = append(out, i)
		}
	}
	return out
}
