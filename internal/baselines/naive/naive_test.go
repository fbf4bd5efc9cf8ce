package naive

import (
	"fmt"
	"testing"

	"gent/internal/metrics"
	"gent/internal/table"
)

func source() *table.Table {
	s := table.New("S", "id", "a", "b")
	s.Key = []int{0}
	for i := 0; i < 10; i++ {
		s.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("a%d", i)), table.S(fmt.Sprintf("b%d", i)))
	}
	return s
}

func TestIntegrateBudget(t *testing.T) {
	src := source()
	big := source() // same schema, 10 rows = 30 cells
	got := Integrate(src, []*table.Table{big, big, big}, Options{CellBudget: 15})
	if got.NumCells() > 15 {
		t.Errorf("budget exceeded: %d cells", got.NumCells())
	}
}

func TestIntegrateShape(t *testing.T) {
	src := source()
	// Partial tables are never merged: recall of full tuples stays low.
	left := src.Project("id", "a")
	right := src.Project("id", "b")
	got := Integrate(src, []*table.Table{left, right}, Options{})
	r := metrics.Evaluate(src, got)
	rec, pre := r.Recall, r.Precision
	if rec != 0 {
		t.Errorf("naive integrator should not reconstruct full tuples, rec=%v", rec)
	}
	if pre != 0 {
		t.Errorf("partial tuples are not source tuples, pre=%v", pre)
	}
	if len(got.Rows) == 0 {
		t.Error("output should still contain concatenated partial tuples")
	}
}

func TestIntegrateKeepsErroneousValues(t *testing.T) {
	src := source()
	bad := src.Clone()
	bad.Name = "bad"
	for _, r := range bad.Rows {
		r[1] = table.S("WRONG")
	}
	got := Integrate(src, []*table.Table{bad}, Options{})
	kl := metrics.Evaluate(src, got).DKL
	if kl < 1 {
		t.Errorf("erroneous values should give high DKL, got %v", kl)
	}
}

func TestIntegrateEmpty(t *testing.T) {
	if got := Integrate(source(), nil, Options{}); len(got.Rows) != 0 {
		t.Error("no inputs must produce no rows")
	}
}
