package table

import (
	"math"
	"slices"
)

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
	x := new(reducer)
	rows := append([]Row(nil), t.Rows...) // merges land in these slots
	return reduced(t, rows, x.complement(rows, x.distinct(rows, slots(len(rows)))))
}

// complement applies κ to the distinct rows at the ascending slots at: the
// first complementing pair in slot order is merged into the earlier slot and
// the later slot is dropped, rescanning until no pair complements. Each merge
// removes a slot, so at most len(at)-1 merges happen. Merges can converge to
// equal tuples, which are then deduplicated. It returns the surviving slots,
// ascending.
func (x *reducer) complement(rows []Row, at []int) []int {
	n := len(at)
	for merged := true; merged; {
		merged = false
	scan:
		for a := 0; a < len(at); a++ {
			for b := a + 1; b < len(at); b++ {
				if Complements(rows[at[a]], rows[at[b]]) {
					rows[at[a]] = MergeComplement(rows[at[a]], rows[at[b]])
					at = append(at[:b], at[b+1:]...)
					merged = true
					break scan
				}
			}
		}
	}
	if len(at) < n {
		at = x.distinct(rows, at)
	}
	return at
}

// MinimalForm removes duplicates and applies β and κ to fixpoint, yielding a
// table with no duplicate, subsumable or complementable tuples — the
// precondition of the representative-operators theorem (Theorem 8). One κ
// pass and then one β pass reach the fixpoint: κ leaves no complementing
// pair, β only removes rows (which creates none), and β drops every row that
// a row surviving it subsumes.
//
// The table is reduced one key group at a time: rows are partitioned by the
// id x gives their key tuple — x's key columns, found in t by name — and κ
// and β run inside each group. x may index t itself (NewKeyIndex(t)) or
// another table, such as the Source a lake table aligns with. This is exact.
// Rows complement or subsume only when they are Equal on every cell both
// hold, and Value.Equal implies equal Value.Key, so rows whose non-null key
// tuples differ never interact. The one exception is a non-finite number,
// which is Equal to its text ("NaN", "+Inf") as a string of another key; a
// table with such a key cell, a null key cell, a key tuple x does not index
// or no column for one of x's keys is reduced whole. Nor does the partition
// change the order: every row keeps its slot, a merge lands in the earlier
// row's slot, and the survivors are emitted in slot order, as the
// whole-table fixpoint leaves them. The pair scans are then quadratic in a
// group's size, not in the table's. group is the grouping's scratch, as
// KeyIndex.Groups takes it: x.Len() long and all zeros, and left so.
func MinimalForm(t *Table, x *KeyIndex, group []int32) *Table {
	r := new(reducer)
	rows := append([]Row(nil), t.Rows...) // merges land in these slots
	keep := make([]bool, len(rows))
	for _, g := range keyGroups(t, x, r.distinct(rows, slots(len(rows))), group) {
		for _, i := range r.subsume(rows, r.complement(rows, g)) {
			keep[i] = true
		}
	}
	at := make([]int, 0, len(rows))
	for i, k := range keep {
		if k {
			at = append(at, i)
		}
	}
	return reduced(t, rows, at)
}

// keyGroups splits the ascending slots at (distinct rows of t) by the id x
// gives their key tuple (KeyIndex.Groups, through group) into ascending
// groups, in first-seen order. It returns at as the only group where a
// split is not exact (see MinimalForm). Only the slots in at are looked at:
// a row distinct dropped repeats a kept row's value classes, and so its
// key's verdict.
func keyGroups(t *Table, x *KeyIndex, at []int, group []int32) [][]int {
	whole := [][]int{at}
	keyCols, ok := x.ColsIn(t)
	if !ok {
		return whole
	}
	rows := t.Rows // at is every slot when distinct dropped none
	if len(at) < len(rows) {
		rows = make([]Row, len(at))
		for k, i := range at {
			rows[k] = t.Rows[i]
		}
	}
	for _, r := range rows {
		for _, c := range keyCols {
			if v := r[c]; v.Kind == KindNumber && (math.IsNaN(v.Num) || math.IsInf(v.Num, 0)) {
				return whole
			}
		}
	}
	pos, ids, ends := x.Groups(rows, keyCols, group)
	if slices.Contains(ids, -1) { // a null key cell, or a tuple x does not index
		return whole
	}
	flat := make([]int, len(at))
	for k, p := range pos {
		flat[p] = at[k]
	}
	groups := make([][]int, len(ids))
	start := 0
	for g, end := range ends {
		groups[g] = flat[start:end:end]
		start = end
	}
	return groups
}
