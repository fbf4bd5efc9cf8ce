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
	out := t.view(0)
	out.Rows = subsume(distinct(out.Rows))
	return out
}

// subsume applies β to distinct rows in place, visiting them in order: a row
// is dropped when a row not yet dropped subsumes it. Only a row with strictly
// more non-null cells can subsume another, so a pair is compared only when
// its count says it might; a dropped row's count is set to -1, which also
// rules it out as a subsumer.
func subsume(rows []Row) []Row {
	counts := make([]int, len(rows))
	for i, r := range rows {
		counts[i] = r.NonNullCount()
	}
	for a := range rows {
		for b := range rows {
			if counts[b] > counts[a] && Subsumes(rows[b], rows[a]) {
				counts[a] = -1
				break
			}
		}
	}
	out := rows[:0]
	for a, r := range rows {
		if counts[a] >= 0 {
			out = append(out, r)
		}
	}
	return out
}
