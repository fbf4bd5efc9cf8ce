package integrate

import (
	"gent/internal/table"
)

// tupleScorer computes the error-aware similarity E of accumulator tuples
// against their aligned (labeled) Source tuples — the per-pair guard of
// Figure 5's integration steps. Rows align through the Integrator's
// source-key index, one key group at a time (reduceGroups).
type tupleScorer struct {
	// srcColOf maps a t column index to the labeled source column index.
	srcColOf []int
	keyIdx   []int
	// isKey flags t's key columns, so e() does not rebuild the set per row.
	isKey  []bool
	nonKey int
}

func (in *Integrator) scorer(t *table.Table) *tupleScorer {
	src := in.labeledSrc
	s := &tupleScorer{
		srcColOf: make([]int, len(t.Cols)),
		nonKey:   len(src.Cols) - len(src.Key),
	}
	for i, name := range t.Cols {
		s.srcColOf[i] = src.ColIndex(name)
	}
	var ok bool
	if s.keyIdx, ok = in.keys.ColsIn(t); !ok {
		return nil
	}
	s.isKey = make([]bool, len(t.Cols))
	for _, k := range s.keyIdx {
		s.isKey[k] = true
	}
	return s
}

// e computes E(srow, r) = (α−δ)/n for a row r of srow's key group, with
// label-aware matching: a preserved label matches the labeled source, a
// value over a label counts as an error.
func (s *tupleScorer) e(srow, r table.Row) float64 {
	alpha, delta := 0, 0
	for i, v := range r {
		if s.isKey[i] || s.srcColOf[i] < 0 {
			continue
		}
		sv := srow[s.srcColOf[i]]
		switch {
		case sv.Equal(v):
			alpha++
		case v.IsNull():
			// nullified: neither
		default:
			delta++
		}
	}
	if s.nonKey == 0 {
		return 1
	}
	return float64(alpha-delta) / float64(s.nonKey)
}

// guardedComplement merges complementing tuple pairs within each source-key
// group, but only when the merged tuple scores at least as well as both
// parts — so an erroneous value never fills a slot a better tuple already
// explains.
func (in *Integrator) guardedComplement(t *table.Table) *table.Table {
	s := in.scorer(t)
	if s == nil {
		return t
	}
	return in.reduceGroups(t, s.keyIdx, func(srow table.Row, grp []table.Row) []table.Row {
		// Fixpoint merge within the group.
		for {
			merged := false
		scan:
			for i := 0; i < len(grp); i++ {
				for j := i + 1; j < len(grp); j++ {
					if !table.Complements(grp[i], grp[j]) {
						continue
					}
					m := table.MergeComplement(grp[i], grp[j])
					// Strict improvement: a merge that adds as many
					// erroneous values as correct ones would block the
					// correct values from ever merging in.
					em := s.e(srow, m)
					if em > s.e(srow, grp[i]) && em > s.e(srow, grp[j]) {
						grp[i] = m
						grp = append(grp[:j], grp[j+1:]...)
						merged = true
						break scan
					}
				}
			}
			if !merged {
				return grp
			}
		}
	})
}

// guardedSubsume removes duplicates and subsumed tuples, keeping a subsumed
// tuple alive when it scores better than its subsumer (its extra nulls are
// closer to the Source than the subsumer's extra errors).
func (in *Integrator) guardedSubsume(t *table.Table) *table.Table {
	s := in.scorer(t)
	if s == nil {
		return table.Subsume(t)
	}
	alive := make([]bool, len(t.Rows))
	counts := make([]int, len(t.Rows))
	return in.reduceGroups(t, s.keyIdx, func(srow table.Row, grp []table.Row) []table.Row {
		alive, counts := alive[:len(grp)], counts[:len(grp)]
		for i, r := range grp {
			alive[i] = true
			counts[i] = r.NonNullCount()
		}
		for i := range grp {
			if !alive[i] {
				continue
			}
			for j := range grp {
				// Only a row with strictly more non-null cells can subsume.
				if i == j || !alive[j] || counts[j] <= counts[i] {
					continue
				}
				if table.Subsumes(grp[j], grp[i]) && s.e(srow, grp[j]) >= s.e(srow, grp[i]) {
					alive[i] = false
					break
				}
			}
		}
		kept := grp[:0]
		for i, r := range grp {
			if alive[i] {
				kept = append(kept, r)
			}
		}
		return kept
	})
}

// reduceGroups runs reduce on each source-key group of t's rows (looked up
// at keyIdx; KeyIndex.Groups) with the group's labeled Source row, and
// returns a table of t's name and columns holding the rows reduce returns,
// group after group, without duplicates. reduce may reorder, rewrite and
// drop the rows of the group it is given. Rows that align with no Source
// tuple (a null or foreign key) form one pass-through group, kept as it is:
// no guard can score them, so they are never merged and never subsumed.
// ReclaimContext never produces such rows — ProjectSelect keeps only
// Source-keyed ones. The survivors move down into the prefix of the grouped
// copy of t's rows, which never passes the start of the group being reduced.
func (in *Integrator) reduceGroups(t *table.Table, keyIdx []int, reduce func(srow table.Row, grp []table.Row) []table.Row) *table.Table {
	pos, ids, ends := in.keys.Groups(t.Rows, keyIdx, in.group)
	rows := make([]table.Row, len(pos))
	for i, p := range pos {
		rows[p] = t.Rows[i]
	}
	out, start := rows[:0], 0
	for g, id := range ids {
		grp := rows[start:ends[g]]
		start = ends[g]
		if id >= 0 {
			grp = reduce(in.labeledSrc.Rows[in.keys.Rep(id)], grp)
		}
		out = append(out, grp...)
	}
	return (&table.Table{Name: t.Name, Cols: t.Cols, Rows: out}).DropDuplicates()
}
