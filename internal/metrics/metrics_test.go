package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gent/internal/table"
)

// example6Source builds the Source Table of Figures 3–4 (key "ID").
func example6Source() *table.Table {
	s := table.New("Source", "ID", "Name", "Age", "Gender", "Education Level")
	s.Key = []int{0}
	s.AddRow(table.N(0), table.S("Smith"), table.N(27), table.Null, table.S("Bachelors"))
	s.AddRow(table.N(1), table.S("Brown"), table.N(24), table.S("Male"), table.S("Masters"))
	s.AddRow(table.N(2), table.S("Wang"), table.N(32), table.S("Female"), table.S("High School"))
	return s
}

// example6S1 is Ŝ1 of Figure 4: a reclamation with an erroneous "Male" for a
// source null.
func example6S1() *table.Table {
	t := table.New("S1", "ID", "Name", "Age", "Gender", "Education Level")
	t.AddRow(table.N(0), table.S("Smith"), table.N(27), table.S("Male"), table.S("Bachelors"))
	t.AddRow(table.N(1), table.S("Brown"), table.N(24), table.S("Male"), table.S("Masters"))
	t.AddRow(table.N(2), table.S("Wang"), table.N(32), table.S("Female"), table.Null)
	return t
}

// example6S2 is Ŝ2 of Figure 4: a reclamation with nullified (unknown)
// values instead of erroneous ones.
func example6S2() *table.Table {
	t := table.New("S2", "ID", "Name", "Age", "Gender", "Education Level")
	t.AddRow(table.N(0), table.S("Smith"), table.Null, table.Null, table.S("Bachelors"))
	t.AddRow(table.N(1), table.S("Brown"), table.N(24), table.S("Male"), table.S("Masters"))
	t.AddRow(table.N(2), table.S("Wang"), table.N(32), table.S("Female"), table.Null)
	return t
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestExample6InstanceSimilarity(t *testing.T) {
	s := example6Source()
	// Paper: Ŝ1 → 0.833, Ŝ2 → 0.75.
	if got := Evaluate(s, example6S1()).InstanceSim; !near(got, 10.0/12.0) {
		t.Errorf("Evaluate(S, Ŝ1).InstanceSim = %v, want 0.8333", got)
	}
	if got := Evaluate(s, example6S2()).InstanceSim; !near(got, 0.75) {
		t.Errorf("Evaluate(S, Ŝ2).InstanceSim = %v, want 0.75", got)
	}
}

func TestExample6EIS(t *testing.T) {
	s := example6Source()
	// Paper: EIS(S, Ŝ1) = 0.875, EIS(S, Ŝ2) = 0.917 — the error-aware score
	// must favor the nullified reclamation over the erroneous one.
	eis1 := EIS(s, example6S1())
	eis2 := EIS(s, example6S2())
	if !near(eis1, 0.875) {
		t.Errorf("EIS(S, Ŝ1) = %v, want 0.875", eis1)
	}
	if !near(eis2, 11.0/12.0) {
		t.Errorf("EIS(S, Ŝ2) = %v, want 0.9167", eis2)
	}
	if eis2 <= eis1 {
		t.Error("EIS must favor nullified over erroneous reclamations")
	}
}

func TestEISPerfectAndEmpty(t *testing.T) {
	s := example6Source()
	if got := EIS(s, s); !near(got, 1) {
		t.Errorf("EIS(S, S) = %v, want 1", got)
	}
	empty := table.New("empty", s.Cols...)
	if got := EIS(s, empty); !near(got, 0) {
		t.Errorf("EIS(S, ∅) = %v, want 0", got)
	}
	emptySource := table.New("es", "ID", "x")
	emptySource.Key = []int{0}
	if got := EIS(emptySource, empty.Project("ID")); !near(got, 1) {
		t.Errorf("EIS(∅, ·) = %v, want 1 (vacuously reclaimed)", got)
	}
}

func TestEISMultipleAlignedTakesMax(t *testing.T) {
	s := example6Source()
	// Duplicate key 0 with one bad and one good tuple: max wins.
	t2 := table.New("t", s.Cols...)
	t2.AddRow(table.N(0), table.S("Wrong"), table.N(99), table.S("X"), table.S("Y"))
	t2.AddRow(table.N(0), table.S("Smith"), table.N(27), table.Null, table.S("Bachelors"))
	a := Align(s, t2)
	got := eisOf(a)
	// Only tuple 0 aligned: E = (3+1)/4 = 1 (null agreement counts) → 0.5·2=1
	// for that tuple; other two tuples contribute 0. EIS = 1/3.
	if !near(got, 1.0/3.0) {
		t.Errorf("EIS = %v, want 1/3", got)
	}
}

func TestRecallPrecision(t *testing.T) {
	s := example6Source()
	r := Evaluate(s, s)
	if r.Recall != 1 || r.Precision != 1 {
		t.Errorf("self Rec/Pre = %v/%v", r.Recall, r.Precision)
	}
	// Half-overlapping reclamation.
	t2 := table.New("t", s.Cols...)
	t2.Rows = append(t2.Rows, s.Rows[0].Clone())
	t2.AddRow(table.N(9), table.S("Extra"), table.N(1), table.Null, table.Null)
	r = Evaluate(s, t2)
	if !near(r.Recall, 1.0/3.0) || !near(r.Precision, 0.5) {
		t.Errorf("Rec/Pre = %v/%v, want 1/3, 1/2", r.Recall, r.Precision)
	}
	// Empty reclaimed table.
	r = Evaluate(s, table.New("e", s.Cols...))
	if r.Recall != 0 || r.Precision != 0 {
		t.Errorf("empty Rec/Pre = %v/%v", r.Recall, r.Precision)
	}
}

func TestRecallPrecisionColumnPermutation(t *testing.T) {
	s := example6Source()
	perm, err := s.ReorderCols([]string{"Name", "ID", "Education Level", "Gender", "Age"})
	if err != nil {
		t.Fatal(err)
	}
	if r := Evaluate(s, perm); r.Recall != 1 || r.Precision != 1 {
		t.Errorf("column permutation broke Rec/Pre: %v/%v", r.Recall, r.Precision)
	}
}

func TestF1(t *testing.T) {
	if F1(0, 0) != 0 {
		t.Error("F1(0,0) != 0")
	}
	if !near(F1(1, 1), 1) {
		t.Error("F1(1,1) != 1")
	}
	if !near(F1(0.5, 1), 2.0/3.0) {
		t.Errorf("F1(0.5,1) = %v", F1(0.5, 1))
	}
}

func TestInstanceDivergence(t *testing.T) {
	s := example6Source()
	// Equation 2 counts only shared non-null values, so a source with a null
	// has self-divergence 1/12 here (Smith's null Gender can never "match").
	// This mirrors the paper's own Example 6 arithmetic, where Ŝ2's
	// (0, Smith, —, —, Bachelors) scores 2/4, not 3/4.
	if got := Evaluate(s, s).InstDiv; !near(got, 1.0/12.0) {
		t.Errorf("self divergence = %v, want 1/12", got)
	}
	if got := Evaluate(s, example6S2()).InstDiv; !near(got, 0.25) {
		t.Errorf("divergence(Ŝ2) = %v, want 0.25", got)
	}
	// A null-free source is exactly self-similar.
	nf := table.New("nf", "ID", "x")
	nf.Key = []int{0}
	nf.AddRow(table.N(1), table.S("a"))
	if got := Evaluate(nf, nf).InstDiv; !near(got, 0) {
		t.Errorf("null-free self divergence = %v, want 0", got)
	}
}

func TestConditionalKLOrdering(t *testing.T) {
	s := example6Source()
	perfect := Evaluate(s, s).DKL
	nullified := Evaluate(s, example6S2()).DKL
	erroneous := Evaluate(s, example6S1()).DKL
	missing := Evaluate(s, table.New("e", s.Cols...)).DKL
	if perfect > 0.01 {
		t.Errorf("DKL(S,S) = %v, want ~0 (only smoothing cost)", perfect)
	}
	if !(perfect < nullified && nullified < erroneous) {
		t.Errorf("DKL ordering violated: perfect=%v nullified=%v erroneous=%v",
			perfect, nullified, erroneous)
	}
	if !(missing > erroneous) {
		t.Errorf("fully missing (%v) must diverge more than partial (%v)",
			missing, erroneous)
	}
	if math.IsInf(missing, 0) || math.IsNaN(missing) {
		t.Error("DKL must stay finite under smoothing")
	}
}

func TestEvaluateReport(t *testing.T) {
	s := example6Source()
	r := Evaluate(s, s)
	if !r.PerfectReclamation || !near(r.EIS, 1) || !near(r.F1, 1) || !near(r.SizeRatio, 1) {
		t.Errorf("self report wrong: %+v", r)
	}
	r2 := Evaluate(s, example6S1())
	if r2.PerfectReclamation {
		t.Error("erroneous reclamation marked perfect")
	}
}

func TestAverage(t *testing.T) {
	if got := Average(nil); got.EIS != 0 || got.PerfectReclamation {
		t.Error("empty average wrong")
	}
	a := Report{EIS: 1, Recall: 1, PerfectReclamation: true}
	b := Report{EIS: 0.5, Recall: 0, PerfectReclamation: false}
	avg := Average([]Report{a, b})
	if !near(avg.EIS, 0.75) || !near(avg.Recall, 0.5) || avg.PerfectReclamation {
		t.Errorf("average wrong: %+v", avg)
	}
}

// randReclaimed pairs the example source with a randomly perturbed
// reclamation for property testing.
type randReclaimed struct{ T *table.Table }

// Generate implements quick.Generator.
func (randReclaimed) Generate(r *rand.Rand, _ int) reflect.Value {
	s := example6Source()
	t := table.New("rand", s.Cols...)
	for _, row := range s.Rows {
		if r.Intn(4) == 0 {
			continue // drop the tuple entirely
		}
		nr := row.Clone()
		for i := 1; i < len(nr); i++ {
			switch r.Intn(4) {
			case 0:
				nr[i] = table.Null
			case 1:
				nr[i] = table.S("garbage")
			}
		}
		t.Rows = append(t.Rows, nr)
	}
	return reflect.ValueOf(randReclaimed{t})
}

func TestEISBounds(t *testing.T) {
	s := example6Source()
	prop := func(p randReclaimed) bool {
		v := EIS(s, p.T)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestInstanceSimilarityNeverBelowEISReach(t *testing.T) {
	// Property: divergence measures stay in range and DKL is non-negative.
	s := example6Source()
	prop := func(p randReclaimed) bool {
		r := Evaluate(s, p.T)
		return r.InstanceSim >= 0 && r.InstanceSim <= 1 && r.DKL >= 0 && !math.IsNaN(r.DKL)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPerfectReclamationIffEISOne(t *testing.T) {
	// Property: Rec = Pre = 1 implies EIS = 1 (identical instances).
	s := example6Source()
	prop := func(p randReclaimed) bool {
		if r := Evaluate(s, p.T); r.Recall == 1 && r.Precision == 1 {
			return near(EIS(s, p.T), 1)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
