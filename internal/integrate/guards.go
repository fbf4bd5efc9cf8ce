package integrate

import (
	"gent/internal/table"
)

// tupleScorer computes the error-aware similarity E of accumulator tuples
// against their aligned (labeled) Source tuples — the per-pair guard of
// Figure 5's integration steps. Rows align through the Integrator's
// source-key index.
type tupleScorer struct {
	in *Integrator
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
		in:       in,
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

// labeledRow resolves the labeled Source row an accumulator row aligns with.
func (s *tupleScorer) labeledRow(r table.Row) (table.Row, bool) {
	id, ok := s.in.keys.Lookup(r, s.keyIdx)
	if !ok {
		return nil, false
	}
	return s.in.labeledSrc.Rows[s.in.keys.Rep(id)], true
}

// e computes E(srcRow, r) = (α−δ)/n with label-aware matching: a preserved
// label matches the labeled source, a value over a label counts as an error.
func (s *tupleScorer) e(r table.Row) float64 {
	srow, ok := s.labeledRow(r)
	if !ok {
		return -1
	}
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
	groups, aligned := groupByKey(t, s)
	out := table.New(t.Name, t.Cols...)
	for g, rows := range groups {
		if !aligned[g] {
			out.Rows = append(out.Rows, rows...)
			continue
		}
		// Fixpoint merge within the group.
		for {
			merged := false
		scan:
			for i := 0; i < len(rows); i++ {
				for j := i + 1; j < len(rows); j++ {
					if !table.Complements(rows[i], rows[j]) {
						continue
					}
					m := table.MergeComplement(rows[i], rows[j])
					// Strict improvement: a merge that adds as many
					// erroneous values as correct ones would block the
					// correct values from ever merging in.
					em := s.e(m)
					if em > s.e(rows[i]) && em > s.e(rows[j]) {
						rows[i] = m
						rows = append(rows[:j], rows[j+1:]...)
						merged = true
						break scan
					}
				}
			}
			if !merged {
				break
			}
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out.DropDuplicates()
}

// guardedSubsume removes duplicates and subsumed tuples, keeping a subsumed
// tuple alive when it scores better than its subsumer (its extra nulls are
// closer to the Source than the subsumer's extra errors).
func (in *Integrator) guardedSubsume(t *table.Table) *table.Table {
	s := in.scorer(t)
	if s == nil {
		return table.Subsume(t)
	}
	groups, aligned := groupByKey(t, s)
	out := table.New(t.Name, t.Cols...)
	for g, rows := range groups {
		if !aligned[g] {
			out.Rows = append(out.Rows, rows...)
			continue
		}
		alive := make([]bool, len(rows))
		for i := range alive {
			alive[i] = true
		}
		for i := range rows {
			if !alive[i] {
				continue
			}
			for j := range rows {
				if i == j || !alive[j] {
					continue
				}
				if table.Subsumes(rows[j], rows[i]) && s.e(rows[j]) >= s.e(rows[i]) {
					alive[i] = false
					break
				}
			}
		}
		for i, r := range rows {
			if alive[i] {
				out.Rows = append(out.Rows, r)
			}
		}
	}
	return out.DropDuplicates()
}

// groupByKey splits rows by source key id, groups in first-seen order.
// Rows that align with no Source tuple (a null or foreign key) form one
// pass-through group, flagged false in aligned: no guard can score them, so
// they are never merged and never subsumed. ReclaimContext never produces
// such rows — ProjectSelect keeps only Source-keyed ones.
func groupByKey(t *table.Table, s *tupleScorer) (groups [][]table.Row, aligned []bool) {
	slot := make(map[int]int)
	for _, r := range t.Rows {
		id, ok := s.in.keys.Lookup(r, s.keyIdx)
		g, seen := slot[id]
		if !seen {
			g = len(groups)
			slot[id] = g
			groups = append(groups, nil)
			aligned = append(aligned, ok)
		}
		groups[g] = append(groups[g], r.Clone())
	}
	return groups, aligned
}
