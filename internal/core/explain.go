package core

import (
	"fmt"
	"sort"
	"strings"

	"gent/internal/metrics"
	"gent/internal/table"
)

// TupleStatus classifies how one Source tuple fared in a reclamation.
type TupleStatus int

const (
	// TupleMissing means no reclaimed tuple aligned with the Source tuple:
	// its key is not derivable from the lake.
	TupleMissing TupleStatus = iota
	// TuplePartial means an aligned tuple exists but some Source values
	// were not reclaimed (nulls in the reclaimed tuple).
	TuplePartial
	// TupleConflicting means the best aligned tuple contradicts the Source
	// on at least one non-null value — the lake tells a different story.
	TupleConflicting
	// TupleExact means some aligned tuple reproduces the Source tuple
	// exactly.
	TupleExact
)

// String names the status.
func (s TupleStatus) String() string {
	switch s {
	case TupleMissing:
		return "missing"
	case TuplePartial:
		return "partial"
	case TupleConflicting:
		return "conflicting"
	default:
		return "exact"
	}
}

// TupleExplanation reports one Source tuple's reclamation outcome.
type TupleExplanation struct {
	// Key is the tuple's key rendered for display.
	Key string
	// Status classifies the outcome.
	Status TupleStatus
	// MissingCols lists Source columns whose value was not reclaimed.
	MissingCols []string
	// ConflictCols lists Source columns where the best aligned tuple holds
	// a different non-null value.
	ConflictCols []string
	// Origins lists the originating tables whose aligned tuples support
	// this Source tuple's key.
	Origins []string
}

// Explanation is the per-tuple breakdown of a reclamation — what a data
// scientist reads to understand which facts the lake supports, which are
// underivable, and which it contradicts (Examples 1–2 of the paper).
type Explanation struct {
	Tuples []TupleExplanation
	// Counts indexes tuple counts by status.
	Counts map[TupleStatus]int
}

// Explain analyzes the Result against its Source Table. A Source without a
// declared key is analyzed under the key the run aligned on (Result.Key).
func (r *Result) Explain(src *table.Table) *Explanation {
	src = r.keyed(src)
	a := metrics.Align(src, r.Reclaimed)
	// Which originating tables cover each source key?
	originsByKey := make([][]string, a.Keys.Len())
	for _, cand := range r.Originating {
		keyIdx, ok := a.Keys.ColsIn(cand.Table)
		if !ok {
			continue
		}
		name := strings.Join(cand.Sources, "⋈")
		seen := make([]bool, a.Keys.Len())
		for _, row := range cand.Table.Rows {
			if id, ok := a.Keys.Lookup(row, keyIdx); ok && !seen[id] {
				seen[id] = true
				originsByKey[id] = append(originsByKey[id], name)
			}
		}
	}

	exp := &Explanation{Counts: make(map[TupleStatus]int)}
	for ri, sr := range src.Rows {
		te := TupleExplanation{Key: displayKey(src, sr)}
		var aligned []table.Row
		if id := a.Keys.RowIDs()[ri]; id >= 0 {
			te.Origins, aligned = originsByKey[id], a.ByKey[id]
		}
		if len(aligned) == 0 {
			te.Status = TupleMissing
			for i, c := range src.Cols {
				if !isKeyCol(src, i) && !sr[i].IsNull() {
					te.MissingCols = append(te.MissingCols, c)
				}
			}
		} else {
			best, bestScore := aligned[0], -1.0
			for _, tr := range aligned {
				if e := a.TupleE(sr, tr); e > bestScore {
					best, bestScore = tr, e
				}
			}
			for i, c := range src.Cols {
				if isKeyCol(src, i) {
					continue
				}
				switch {
				case sr[i].Equal(best[i]):
				case best[i].IsNull():
					te.MissingCols = append(te.MissingCols, c)
				default:
					te.ConflictCols = append(te.ConflictCols, c)
				}
			}
			switch {
			case len(te.ConflictCols) > 0:
				te.Status = TupleConflicting
			case len(te.MissingCols) > 0:
				te.Status = TuplePartial
			default:
				te.Status = TupleExact
			}
		}
		exp.Counts[te.Status]++
		exp.Tuples = append(exp.Tuples, te)
	}
	return exp
}

// Summary renders the explanation's headline counts.
func (e *Explanation) Summary() string {
	return fmt.Sprintf("exact=%d partial=%d conflicting=%d missing=%d",
		e.Counts[TupleExact], e.Counts[TuplePartial],
		e.Counts[TupleConflicting], e.Counts[TupleMissing])
}

// String renders the full per-tuple report, worst tuples first.
func (e *Explanation) String() string {
	tuples := append([]TupleExplanation(nil), e.Tuples...)
	sort.SliceStable(tuples, func(i, j int) bool { return tuples[i].Status < tuples[j].Status })
	var b strings.Builder
	b.WriteString(e.Summary() + "\n")
	for _, t := range tuples {
		if t.Status == TupleExact {
			continue
		}
		fmt.Fprintf(&b, "%-12s %s", t.Status, t.Key)
		if len(t.MissingCols) > 0 {
			fmt.Fprintf(&b, "  missing: %s", strings.Join(t.MissingCols, ","))
		}
		if len(t.ConflictCols) > 0 {
			fmt.Fprintf(&b, "  conflicts: %s", strings.Join(t.ConflictCols, ","))
		}
		if len(t.Origins) > 0 {
			fmt.Fprintf(&b, "  origins: %s", strings.Join(t.Origins, "; "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// keyed returns src keyed as the run aligned it: src itself when it
// declares a key, else a shallow copy carrying Result.Key.
func (r *Result) keyed(src *table.Table) *table.Table {
	if len(src.Key) > 0 || len(r.Key) == 0 {
		return src
	}
	k := *src
	k.Key = r.Key
	return &k
}

func isKeyCol(t *table.Table, i int) bool {
	for _, k := range t.Key {
		if k == i {
			return true
		}
	}
	return false
}

func displayKey(t *table.Table, r table.Row) string {
	parts := make([]string, 0, len(t.Key))
	for _, k := range t.Key {
		parts = append(parts, r[k].String())
	}
	return strings.Join(parts, "/")
}
