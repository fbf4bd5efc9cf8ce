package table

// Complements reports whether t1 and t2 (same schema) complement each other:
// they agree on every attribute where both are non-null, share at least one
// non-null value, and each has a non-null value where the other has a null.
func Complements(t1, t2 Row) bool {
	share, oneFills, twoFills := false, false, false
	for i := range t1 {
		a, b := t1[i], t2[i]
		switch {
		case a.IsNull() && b.IsNull():
		case a.IsNull():
			twoFills = true
		case b.IsNull():
			oneFills = true
		case a.Equal(b):
			share = true
		default:
			return false // disagree on a shared non-null
		}
	}
	return share && oneFills && twoFills
}

// MergeComplement applies κ to one complementing pair, producing the tuple
// holding all non-null values of either.
func MergeComplement(t1, t2 Row) Row {
	out := make(Row, len(t1))
	for i := range t1 {
		if t1[i].IsNull() {
			out[i] = t2[i]
		} else {
			out[i] = t1[i]
		}
	}
	return out
}

// Complement applies κ on a whole table: repeatedly merge complementing
// pairs until no pair complements. Merged inputs are replaced by their merge;
// the result has no complementing tuples.
func Complement(t *Table) *Table {
	out := t.view(0) // merges land in out's row slots, not t's
	out.Rows = complement(distinct(out.Rows))
	return out
}

// complement applies κ to distinct rows in place: the first complementing
// pair in order is merged into the earlier row's slot and the later row is
// dropped, rescanning until no pair complements. Each merge removes a row, so
// at most len(rows)-1 merges happen. Merges can converge to equal tuples,
// which are then deduplicated.
func complement(rows []Row) []Row {
	n := len(rows)
	for merged := true; merged; {
		merged = false
	scan:
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				if Complements(rows[a], rows[b]) {
					rows[a] = MergeComplement(rows[a], rows[b])
					rows = append(rows[:b], rows[b+1:]...)
					merged = true
					break scan
				}
			}
		}
	}
	if len(rows) < n {
		rows = distinct(rows)
	}
	return rows
}
