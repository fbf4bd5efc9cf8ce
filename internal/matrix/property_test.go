package matrix

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gent/internal/table"
)

// randCandidate generates a random candidate aligned to the fixed 4-row
// source below: each tuple keeps the key and perturbs other cells into
// match / null / contradiction.
type randCandidate struct{ T *table.Table }

func propSource() *table.Table {
	s := table.New("S", "k", "a", "b", "c")
	s.Key = []int{0}
	for i := 0; i < 4; i++ {
		s.AddRow(
			table.S(fmt.Sprintf("k%d", i)),
			table.S(fmt.Sprintf("a%d", i)),
			table.S(fmt.Sprintf("b%d", i)),
			table.S(fmt.Sprintf("c%d", i)),
		)
	}
	return s
}

// Generate implements quick.Generator.
func (randCandidate) Generate(r *rand.Rand, _ int) reflect.Value {
	src := propSource()
	t := table.New("cand", "k", "a", "b", "c")
	for _, sr := range src.Rows {
		if r.Intn(4) == 0 {
			continue
		}
		copies := 1 + r.Intn(2)
		for c := 0; c < copies; c++ {
			nr := sr.Clone()
			for i := 1; i < len(nr); i++ {
				switch r.Intn(3) {
				case 0:
					nr[i] = table.Null
				case 1:
					nr[i] = table.S("wrong")
				}
			}
			t.Rows = append(t.Rows, nr)
		}
	}
	return reflect.ValueOf(randCandidate{t})
}

// TestCombineNeverDecreasesEIS: combining a matrix with any other matrix can
// only raise the simulated EIS — merging takes element-wise maxima and
// conflicts keep both tuples, so each source tuple's best aligned score is
// monotone. This is the property that makes Algorithm 1's greedy traversal
// sound.
func TestCombineNeverDecreasesEIS(t *testing.T) {
	shape := NewShape(propSource())
	prop := func(a, b randCandidate) bool {
		ma := FromTable(shape, a.T, ThreeValued)
		mb := FromTable(shape, b.T, ThreeValued)
		combined := Combine(ma, mb)
		return combined.EIS() >= ma.EIS()-1e-12 && combined.EIS() >= mb.EIS()-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Note: Combine is deliberately NOT commutative on conflicting inputs — the
// Equation 5 pairing is greedy (a tuple merges into the first
// non-conflicting partner), so argument order can shift which tuples absorb
// which. Algorithm 1 applies Combine as a left fold in pick order, matching
// the paper; only monotonicity (above) is required for the traversal's
// soundness.

// TestTraverseNeverWorseThanBestSingle: the greedy traversal's combined EIS
// must be at least the best standalone candidate's.
func TestTraverseNeverWorseThanBestSingle(t *testing.T) {
	src := propSource()
	shape := NewShape(src)
	prop := func(a, b, c randCandidate) bool {
		cands := []*table.Table{a.T, b.T, c.T}
		best := 0.0
		for _, cand := range cands {
			if s := FromTable(shape, cand, ThreeValued).EIS(); s > best {
				best = s
			}
		}
		picked := traverse(t, src, cands, ThreeValued, TraverseOptions{})
		if len(picked) == 0 {
			return best == 0
		}
		combined := FromTable(shape, cands[picked[0]], ThreeValued)
		for _, i := range picked[1:] {
			combined = Combine(combined, FromTable(shape, cands[i], ThreeValued))
		}
		return combined.EIS() >= best-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEISWithinBounds: matrix EIS stays in [0, 1] for arbitrary candidates.
func TestEISWithinBounds(t *testing.T) {
	shape := NewShape(propSource())
	prop := func(a randCandidate) bool {
		v := FromTable(shape, a.T, ThreeValued).EIS()
		return v >= 0 && v <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
