package metrics

import (
	"math/rand"

	"gent/internal/table"
)

// ApproxEIS estimates the EIS score from a uniform sample of source tuples,
// the "fast, approximate instance comparison" the paper's conclusion points
// to for very large source tables. Tuple alignment still uses the full
// reclaimed table (hash lookups are cheap); only the per-source-tuple scan
// is sampled. sampleSize <= 0 or >= |S| falls back to the exact score.
//
// The estimator is unbiased: each sampled tuple contributes its exact
// per-tuple EIS term, so the expectation over samples equals EIS(s, t). The
// standard error shrinks as 1/√sampleSize.
func ApproxEIS(s, t *table.Table, sampleSize int, seed int64) float64 {
	if sampleSize <= 0 || sampleSize >= len(s.Rows) {
		return EIS(s, t)
	}
	a := Align(s, t)
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(len(s.Rows))[:sampleSize]
	sum := 0.0
	for _, i := range idx {
		sr := s.Rows[i]
		aligned := a.aligned(i)
		if len(aligned) == 0 {
			continue
		}
		best := -1.0
		for _, tr := range aligned {
			if e := a.TupleE(sr, tr); e > best {
				best = e
			}
		}
		sum += 0.5 * (1 + best)
	}
	return sum / float64(sampleSize)
}
