package integrate

import (
	"slices"

	"gent/internal/table"
)

// score returns the numerator α−δ of the error-aware similarity E(srow, r)
// = (α−δ)/n, the per-pair guard of Figure 5's integration steps, for the
// row r holding a's cells and b's wherever a's are null: a row when b is a,
// and the κ merge of a and b without building it. Matching is label-aware:
// a preserved label matches the labeled Source row, a value over a label
// counts as an error. Every row of a reduce call shares n, so numerators
// compare as the scores do (with no non-key column, every E is 1 and every
// numerator 0).
func (in *Integrator) score(srow, a, b table.Row) int {
	n := 0
	for c, v := range a {
		if in.isKey[c] {
			continue
		}
		if v.IsNull() {
			v = b[c]
		}
		switch {
		case srow[c].Equal(v):
			n++
		case !v.IsNull():
			n--
		}
	}
	return n
}

// reduce applies the Figure 5 guards to one Source key group grp, scored
// against the group's labeled Source row srow, and returns the survivors in
// order, reusing grp's storage.
//
// Guarded κ merges complementing pairs, but only when the merged tuple
// scores strictly better than both parts — so an erroneous value never
// fills a slot a better tuple already explains, and a merge that adds as
// many erroneous values as correct ones cannot block the correct values
// from merging in later. The rows are then deduplicated. Guarded β removes
// a tuple subsumed by a live tuple, unless it scores better than its
// subsumer (its extra nulls are closer to the Source than the subsumer's
// extra errors).
func (in *Integrator) reduce(srow table.Row, grp []table.Row) []table.Row {
	grp, _ = in.complement(srow, grp)
	return in.subsume(srow, distinct(grp))
}

// minimalForm takes one table's rows of one Source key group to minimal
// form (TakeMinimalForm, line 6), in place and in order: deduplication
// first, so that κ's quadratic scan sees only distinct rows, then unguarded
// κ, deduplication again if κ merged (merges can converge), and unguarded β.
func (in *Integrator) minimalForm(grp []table.Row) []table.Row {
	grp, merged := in.complement(nil, distinct(grp))
	if merged {
		grp = distinct(grp)
	}
	return in.subsume(nil, grp)
}

// complement applies κ to grp in place: the first complementing pair in
// order whose merge the guard accepts (every pair when srow is nil) is
// merged into the earlier row, which ReclaimContext built and so may write,
// the later row is dropped, and the scan restarts until no pair merges. It
// returns the survivors in order and whether any pair merged.
func (in *Integrator) complement(srow table.Row, grp []table.Row) ([]table.Row, bool) {
	changed := false
	for merged := true; merged; {
		merged = false
	scan:
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				a, b := grp[i], grp[j]
				if !table.Complements(a, b) || srow != nil && in.score(srow, a, b) <= max(in.score(srow, a, a), in.score(srow, b, b)) {
					continue
				}
				for c, v := range a {
					if v.IsNull() {
						a[c] = b[c]
					}
				}
				grp = append(grp[:j], grp[j+1:]...)
				merged, changed = true, true
				break scan
			}
		}
	}
	return grp, changed
}

// subsume applies β to grp, whose rows are distinct, in place: visiting the
// rows in order, it drops one when a live row subsumes it and, unless srow
// is nil, scores no worse. It returns the survivors in order.
func (in *Integrator) subsume(srow table.Row, grp []table.Row) []table.Row {
	// counts[a] is row a's non-null cell count, -1 once it is dropped: only
	// a live row with strictly more non-null cells can subsume.
	counts := in.counts[:0]
	for _, r := range grp {
		counts = append(counts, r.NonNullCount())
	}
	in.counts = counts
	for a := range grp {
		for b := range grp {
			if counts[b] > counts[a] && table.Subsumes(grp[b], grp[a]) && (srow == nil || in.score(srow, grp[b], grp[b]) >= in.score(srow, grp[a], grp[a])) {
				counts[a] = -1
				break
			}
		}
	}
	kept := grp[:0]
	for a, r := range grp {
		if counts[a] >= 0 {
			kept = append(kept, r)
		}
	}
	return kept
}

// distinct drops, in place, every row of grp that repeats an earlier one
// under Row.Key equality, keeping first occurrences in order. grp is one
// key group, so the pairwise scan stays within the group's size.
func distinct(grp []table.Row) []table.Row {
	kept := grp[:0]
	for _, r := range grp {
		if !slices.ContainsFunc(kept, func(q table.Row) bool { return table.SameRow(q, r) }) {
			kept = append(kept, r)
		}
	}
	return kept
}
