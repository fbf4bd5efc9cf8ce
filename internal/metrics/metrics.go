// Package metrics implements every measure the paper evaluates with: the
// error-aware instance similarity (EIS) score of Definitions 4–5, the
// instance similarity of Alexe et al. it generalizes, the TDR-derived Recall
// and Precision, Instance Divergence, and the penalized conditional
// KL-divergence of Appendix E.
//
// All measures compare a possible reclaimed table T against a Source Table S
// that has a key; lake-derived tuples align with a source tuple exactly when
// they share its key value.
package metrics

import (
	"math"
	"slices"

	"gent/internal/table"
)

// epsilon smooths the conditional KL-divergence so that missing values yield
// a large finite penalty instead of an infinity, and erroneous values yield
// roughly twice the penalty of nulls — the ordering Appendix E requires.
const epsilon = 1e-3

// Alignment holds T's rows grouped by S's key values, with T's columns
// permuted into S's column order (missing columns null-padded).
type Alignment struct {
	Source *table.Table
	// Reclaimed is T reshaped to S's schema.
	Reclaimed *table.Table
	// Keys numbers S's key tuples; Keys.RowIDs()[i] is source row i's id.
	Keys *table.KeyIndex
	// ByKey[id] lists the reclaimed rows sharing S's key tuple id; loose
	// lists the others (a null key cell, or a key S lacks).
	ByKey [][]table.Row
	loose []table.Row
	// KeyIdx marks which column positions are key attributes.
	KeyIdx map[int]bool
	// NonKey is the number of non-key attributes (n in Definition 4).
	NonKey int
}

// Align reshapes T to S's schema and groups its tuples by S's key. S must
// have a key.
func Align(s, t *table.Table) *Alignment { return align(s, table.NewKeyIndex(s), t) }

// align is Align over keys, an index already built over s. A T whose
// columns are S's, in S's order — every reclamation integrate produces — is
// read through a view of its rows, not copied.
func align(s *table.Table, keys *table.KeyIndex, t *table.Table) *Alignment {
	reshaped := t.PadNullColumns(s.Cols)
	if !slices.Equal(reshaped.Cols, s.Cols) {
		var err error
		if reshaped, err = reshaped.ReorderCols(s.Cols); err != nil {
			// PadNullColumns guarantees every column exists.
			panic("metrics: unreachable reorder failure: " + err.Error())
		}
	}
	reshaped.Key = append([]int(nil), s.Key...)
	a := &Alignment{
		Source:    s,
		Reclaimed: reshaped,
		Keys:      keys,
		KeyIdx:    make(map[int]bool, len(s.Key)),
	}
	a.ByKey = make([][]table.Row, a.Keys.Len())
	for _, k := range s.Key {
		a.KeyIdx[k] = true
	}
	a.NonKey = len(s.Cols) - len(s.Key)
	for _, r := range reshaped.Rows {
		if id, ok := a.Keys.Lookup(r, s.Key); ok {
			a.ByKey[id] = append(a.ByKey[id], r)
		} else {
			a.loose = append(a.loose, r)
		}
	}
	return a
}

// aligned returns the reclaimed rows sharing source row i's key.
func (a *Alignment) aligned(i int) []table.Row {
	if id := a.Keys.RowIDs()[i]; id >= 0 {
		return a.ByKey[id]
	}
	return nil
}

// alphaDelta returns α(s,t) (non-key attributes on which s and t share the
// same value) and δ(s,t) (non-key positions where t holds a different,
// non-null value) per Definition 4. Agreement on a null counts toward α when
// nullAgrees is set: reproducing the paper's Example 6 arithmetic (EIS of
// 0.875 vs 0.917) requires counting both-null positions as "sharing the same
// value" in the error-aware score, while the plain instance similarity of
// Alexe et al. counts only shared non-null values.
func (a *Alignment) alphaDelta(s, t table.Row, nullAgrees bool) (alpha, delta int) {
	for i := range s {
		if a.KeyIdx[i] {
			continue
		}
		switch {
		case s[i].IsNull() && t[i].IsNull():
			if nullAgrees {
				alpha++
			}
		case t[i].IsNull():
			// Nullified: neither shared nor erroneous.
		case s[i].Equal(t[i]):
			alpha++
		default:
			delta++
		}
	}
	return alpha, delta
}

// TupleE returns the error-aware tuple similarity E(s,t) = (α−δ)/n. With no
// non-key attributes the aligned tuple is a perfect match by key, so E = 1.
func (a *Alignment) TupleE(s, t table.Row) float64 {
	if a.NonKey == 0 {
		return 1
	}
	alpha, delta := a.alphaDelta(s, t, true)
	return float64(alpha-delta) / float64(a.NonKey)
}

// tupleAlpha returns α(s,t)/n, the (plain) tuple similarity of Alexe et al.
func (a *Alignment) tupleAlpha(s, t table.Row) float64 {
	if a.NonKey == 0 {
		return 1
	}
	alpha, _ := a.alphaDelta(s, t, false)
	return float64(alpha) / float64(a.NonKey)
}

// EIS returns the Error-Aware Instance Similarity of Definition 5, in [0,1].
// Source tuples with no aligned reclaimed tuple contribute 0.
func EIS(s, t *table.Table) float64 {
	return eisOf(Align(s, t))
}

func eisOf(a *Alignment) float64 {
	if len(a.Source.Rows) == 0 {
		return 1
	}
	sum := 0.0
	for i, sr := range a.Source.Rows {
		aligned := a.aligned(i)
		if len(aligned) == 0 {
			continue
		}
		best := math.Inf(-1)
		for _, tr := range aligned {
			if e := a.TupleE(sr, tr); e > best {
				best = e
			}
		}
		sum += 0.5 * (1 + best)
	}
	return sum / float64(len(a.Source.Rows))
}

// instanceSimilarityOf returns the (non-error-aware) instance similarity
// of Equation 2.
func instanceSimilarityOf(a *Alignment) float64 {
	if len(a.Source.Rows) == 0 {
		return 1
	}
	sum := 0.0
	for i, sr := range a.Source.Rows {
		best := 0.0
		for _, tr := range a.aligned(i) {
			if v := a.tupleAlpha(sr, tr); v > best {
				best = v
			}
		}
		sum += best
	}
	return sum / float64(len(a.Source.Rows))
}

// recallPrecisionOf returns the TDR-derived Rec = |S∩Ŝ|/|S| and Pre =
// |S∩Ŝ|/|Ŝ| over distinct whole tuples (Ŝ reshaped to S's schema first),
// equal when their Row.Key strings are (table.SameRow). Equal tuples share
// their key's value classes, so a reclaimed tuple is compared within its
// ByKey group, or, if S's index cannot place it, with the Source's tuples
// that have a null key cell. An empty reclaimed table has precision 0.
func recallPrecisionOf(a *Alignment) (rec, pre float64) {
	in := func(grp []table.Row, r table.Row) bool {
		return slices.ContainsFunc(grp, func(q table.Row) bool { return table.SameRow(q, r) })
	}
	s := a.Source.DropDuplicates().Rows
	var loose []table.Row // the Source's tuples with a null key cell
	inter, nT := 0, 0
	for _, r := range s {
		if id, ok := a.Keys.Lookup(r, a.Source.Key); !ok {
			loose = append(loose, r)
		} else if in(a.ByKey[id], r) {
			inter++
		}
	}
	for _, grp := range a.ByKey {
		for k, r := range grp {
			if !in(grp[:k], r) {
				nT++
			}
		}
	}
	if len(a.loose) > 0 {
		t := distinct(a.loose)
		nT, inter = nT+t, inter+len(loose)+t-distinct(append(loose, a.loose...))
	}
	if len(s) > 0 {
		rec = float64(inter) / float64(len(s))
	}
	if nT > 0 {
		pre = float64(inter) / float64(nT)
	}
	return rec, pre
}

// distinct counts rows under Row.Key equality, by row hash.
func distinct(rows []table.Row) int {
	return len((&table.Table{Rows: rows}).DropDuplicates().Rows)
}

// F1 combines recall and precision; 0 when both are 0.
func F1(rec, pre float64) float64 {
	if rec+pre == 0 {
		return 0
	}
	return 2 * rec * pre / (rec + pre)
}

// bestAligned picks, for source row i, the aligned reclaimed tuple sharing
// the most non-key values — the paper's rule for divergence measures.
func (a *Alignment) bestAligned(i int) (table.Row, bool) {
	aligned, sr := a.aligned(i), a.Source.Rows[i]
	if len(aligned) == 0 {
		return nil, false
	}
	best, bestAlpha := aligned[0], -1
	for _, tr := range aligned {
		alpha, _ := a.alphaDelta(sr, tr, false)
		if alpha > bestAlpha {
			best, bestAlpha = tr, alpha
		}
	}
	return best, true
}

// conditionalKLOf computes the penalized conditional KL-divergence of
// Appendix E (Equations 11–12): per non-key column, the per-key penalty
// −log(Q(x|k)·(1−Q(¬x|k))) averaged over source keys, summed over columns,
// and normalized by Q(K)·n where Q(K) is the (smoothed) fraction of source
// keys found in the reclaimed table. Matching values cost ~0, nullified
// values cost −log ε, erroneous values cost ~−2·log ε. 0 is ideal.
func conditionalKLOf(a *Alignment) float64 {
	s := a.Source
	if len(s.Rows) == 0 || a.NonKey == 0 {
		return 0
	}
	matchedKeys := 0
	colSums := make([]float64, len(s.Cols))
	for i, sr := range s.Rows {
		tr, ok := a.bestAligned(i)
		if ok {
			matchedKeys++
		}
		for i := range s.Cols {
			if a.KeyIdx[i] {
				continue
			}
			var q, qneg float64
			switch {
			case !ok:
				q, qneg = 0, 0 // no aligned tuple at all
			case sr[i].Equal(tr[i]):
				q, qneg = 1, 0 // match (a shared null matches)
			case tr[i].IsNull():
				q, qneg = 0, 0 // nullified
			default:
				q, qneg = 0, 1 // erroneous
			}
			// Smooth into (0,1) so the logarithm stays finite.
			q = q*(1-2*epsilon) + epsilon
			qneg = qneg * (1 - 2*epsilon)
			colSums[i] += -math.Log(q * (1 - qneg))
		}
	}
	total := 0.0
	for _, v := range colSums {
		total += v / float64(len(s.Rows))
	}
	qk := (float64(matchedKeys) + epsilon) / (float64(len(s.Rows)) + epsilon)
	return total / (qk * float64(a.NonKey))
}

// Report bundles every effectiveness measure for one reclamation.
type Report struct {
	EIS         float64
	InstanceSim float64
	Recall      float64
	Precision   float64
	F1          float64
	// InstDiv is the Instance Divergence 1 − InstanceSim; 0 is ideal.
	InstDiv float64
	// DKL is the penalized conditional KL-divergence; 0 is ideal.
	DKL float64
	// SizeRatio is |T| cells over |S| cells, the scalability measure of
	// Figure 8(b).
	SizeRatio float64
	// PerfectReclamation reports Rec = Pre = 1.
	PerfectReclamation bool
}

// Evaluate computes the full Report for reclaimed table t against source s,
// aligning t once for every measure.
func Evaluate(s, t *table.Table) Report { return EvaluateKeyed(s, table.NewKeyIndex(s), t) }

// EvaluateKeyed is Evaluate over keys, an index the caller already built over
// s (table.NewKeyIndex(s)) and shares with the query's other layers.
func EvaluateKeyed(s *table.Table, keys *table.KeyIndex, t *table.Table) Report {
	a := align(s, keys, t)
	rec, pre := recallPrecisionOf(a)
	inst := instanceSimilarityOf(a)
	r := Report{
		EIS:         eisOf(a),
		InstanceSim: inst,
		Recall:      rec,
		Precision:   pre,
		F1:          F1(rec, pre),
		InstDiv:     1 - inst,
		DKL:         conditionalKLOf(a),
	}
	if s.NumCells() > 0 {
		r.SizeRatio = float64(t.NumCells()) / float64(s.NumCells())
	}
	r.PerfectReclamation = rec == 1 && pre == 1
	return r
}

// Average folds reports element-wise; it returns a zero Report for no input.
// PerfectReclamation on the average means every input was perfect.
func Average(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	var avg Report
	avg.PerfectReclamation = true
	for _, r := range reports {
		avg.EIS += r.EIS
		avg.InstanceSim += r.InstanceSim
		avg.Recall += r.Recall
		avg.Precision += r.Precision
		avg.F1 += r.F1
		avg.InstDiv += r.InstDiv
		avg.DKL += r.DKL
		avg.SizeRatio += r.SizeRatio
		avg.PerfectReclamation = avg.PerfectReclamation && r.PerfectReclamation
	}
	n := float64(len(reports))
	avg.EIS /= n
	avg.InstanceSim /= n
	avg.Recall /= n
	avg.Precision /= n
	avg.F1 /= n
	avg.InstDiv /= n
	avg.DKL /= n
	avg.SizeRatio /= n
	return avg
}
