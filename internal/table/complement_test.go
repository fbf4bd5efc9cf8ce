package table

import (
	"testing"
	"testing/quick"
)

func TestComplements(t *testing.T) {
	a := Row{S("Smith"), N(27), Null}
	b := Row{S("Smith"), Null, S("Male")}
	if !Complements(a, b) || !Complements(b, a) {
		t.Error("complementing pair not detected")
	}
	// Disagreement on a shared non-null kills complementation.
	c := Row{S("Smith"), N(99), S("Male")}
	if Complements(a, c) {
		t.Error("conflicting tuples must not complement")
	}
	// Subsumption is not complementation (nothing flows both ways).
	d := Row{S("Smith"), N(27), S("Male")}
	if Complements(a, d) {
		t.Error("subsuming tuple must not complement")
	}
	// No shared non-null value.
	e := Row{Null, Null, S("Male")}
	f := Row{S("Smith"), N(27), Null}
	if Complements(e, f) {
		t.Error("tuples sharing no value must not complement")
	}
}

func TestMergeComplement(t *testing.T) {
	a := Row{S("Smith"), N(27), Null}
	b := Row{S("Smith"), Null, S("Male")}
	m := MergeComplement(a, b)
	want := Row{S("Smith"), N(27), S("Male")}
	if !m.Equal(want) {
		t.Errorf("merge = %v", m)
	}
}

func TestComplementPaperExample(t *testing.T) {
	// Plain κ then β over Figure 5's A⊎B⊎C (without null labeling) fully
	// combines each person into one tuple, including the erroneous Male
	// gender from Table C — which is exactly why Algorithm 2 labels source
	// nulls first.
	u := OuterUnionAll([]*Table{figA(), figB(), figC()})
	got := Subsume(Complement(u))
	want := New("w", "ID", "Name", "Education Level", "Age", "Gender")
	want.AddRow(N(0), S("Smith"), S("Bachelors"), N(27), S("Male"))
	want.AddRow(N(1), S("Brown"), Null, N(24), S("Male"))
	want.AddRow(N(2), S("Wang"), S("High School"), N(32), S("Male"))
	if !SameInstance(got, want) {
		t.Errorf("κ/β of A⊎B⊎C wrong:\n%s", got)
	}
}

func TestComplementLeavesNoComplementingPair(t *testing.T) {
	prop := func(a randTable) bool {
		got := Complement(a.T)
		for i := range got.Rows {
			for j := i + 1; j < len(got.Rows); j++ {
				if Complements(got.Rows[i], got.Rows[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestComplementClosureKeepsAllMerges(t *testing.T) {
	// Two tuples complement the same partner: the pairwise-replace κ loses
	// one combination, the closure keeps both.
	tbl := New("t", "id", "name", "age")
	tbl.AddRow(N(0), S("Smith"), Null)
	tbl.AddRow(Null, S("Smith"), N(27))
	tbl.AddRow(Null, S("Smith"), N(28))
	got, truncated := ComplementClosure(tbl, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if !mustRows(got,
		Row{N(0), S("Smith"), N(27)},
		Row{N(0), S("Smith"), N(28)},
	) {
		t.Errorf("closure wrong:\n%s", got)
	}
}

func TestComplementClosureBound(t *testing.T) {
	tbl := New("t", "id", "name", "age")
	for i := 0; i < 10; i++ {
		tbl.AddRow(N(float64(i)), S("Smith"), Null)
		tbl.AddRow(Null, S("Smith"), N(float64(100+i)))
	}
	_, truncated := ComplementClosure(tbl, 15)
	if !truncated {
		t.Error("bound not reported")
	}
}

func TestFullDisjunctionPaperExample(t *testing.T) {
	got, truncated := FullDisjunction([]*Table{figA(), figB(), figC()}, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	want := New("w", "ID", "Name", "Education Level", "Age", "Gender")
	want.AddRow(N(0), S("Smith"), S("Bachelors"), N(27), S("Male"))
	want.AddRow(N(1), S("Brown"), Null, N(24), S("Male"))
	want.AddRow(N(2), S("Wang"), S("High School"), N(32), S("Male"))
	if !SameInstance(got, want) {
		t.Errorf("FD wrong:\n%s", got)
	}
}
