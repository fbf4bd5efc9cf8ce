package integrate

import (
	"context"
	"testing"

	"gent/internal/metrics"
	"gent/internal/table"
)

// reclaim runs ReclaimContext under a background context; integration fails
// only on cancellation, so any error fails the test.
func reclaim(tb testing.TB, in *Integrator, origs []*table.Table) *table.Table {
	tb.Helper()
	out, err := in.ReclaimContext(context.Background(), origs)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func source() *table.Table {
	s := table.New("Source", "ID", "Name", "Age", "Gender", "Education")
	s.Key = []int{0}
	s.AddRow(table.S("id0"), table.S("Smith"), table.N(27), table.Null, table.S("Bachelors"))
	s.AddRow(table.S("id1"), table.S("Brown"), table.N(24), table.S("Male"), table.S("Masters"))
	s.AddRow(table.S("id2"), table.S("Wang"), table.N(32), table.S("Female"), table.S("High School"))
	return s
}

func candA() *table.Table {
	a := table.New("A", "ID", "Name", "Education")
	a.AddRow(table.S("id0"), table.S("Smith"), table.S("Bachelors"))
	a.AddRow(table.S("id1"), table.S("Brown"), table.Null)
	a.AddRow(table.S("id2"), table.S("Wang"), table.S("High School"))
	return a
}

func candB() *table.Table {
	b := table.New("B", "ID", "Name", "Age")
	b.AddRow(table.S("id0"), table.S("Smith"), table.N(27))
	b.AddRow(table.S("id1"), table.S("Brown"), table.N(24))
	b.AddRow(table.S("id2"), table.S("Wang"), table.N(32))
	return b
}

func candC() *table.Table {
	c := table.New("C", "ID", "Name", "Gender")
	c.AddRow(table.S("id0"), table.S("Smith"), table.S("Male"))
	c.AddRow(table.S("id1"), table.S("Brown"), table.S("Male"))
	c.AddRow(table.S("id2"), table.S("Wang"), table.S("Male"))
	return c
}

func TestReclaimJoinsComplementaryTables(t *testing.T) {
	src := source()
	got := reclaim(t, New(src), []*table.Table{candA(), candB()})
	// A and B complement per key: each person becomes one tuple with Age and
	// Education but null Gender.
	want := table.New("w", src.Cols...)
	want.AddRow(table.S("id0"), table.S("Smith"), table.N(27), table.Null, table.S("Bachelors"))
	want.AddRow(table.S("id1"), table.S("Brown"), table.N(24), table.Null, table.Null)
	want.AddRow(table.S("id2"), table.S("Wang"), table.N(32), table.Null, table.S("High School"))
	if !table.SameInstance(got, want) {
		t.Errorf("reclaimed:\n%s\nwant:\n%s", got, want)
	}
}

func TestReclaimProtectsCorrectNulls(t *testing.T) {
	// Figure 5: integrating A, B, C must NOT fill Smith's correct null
	// Gender with C's erroneous "Male"; Brown's correct Male must merge.
	src := source()
	got := reclaim(t, New(src), []*table.Table{candA(), candB(), candC()})

	var smithGenders, brownGenders []table.Value
	for _, r := range got.Rows {
		switch {
		case r[0].Equal(table.S("id0")):
			smithGenders = append(smithGenders, r[3])
		case r[0].Equal(table.S("id1")):
			brownGenders = append(brownGenders, r[3])
		}
	}
	// Smith's fully-merged tuple must keep the null; Male may appear only in
	// a separate partial tuple.
	foundProtected := false
	for i, g := range smithGenders {
		_ = i
		if g.IsNull() {
			foundProtected = true
		}
	}
	if !foundProtected {
		t.Errorf("Smith's correct null Gender was filled: %s", got)
	}
	foundMale := false
	for _, g := range brownGenders {
		if g.Equal(table.S("Male")) {
			foundMale = true
		}
	}
	if !foundMale {
		t.Errorf("Brown's correct Male Gender was lost: %s", got)
	}
	// The EIS of the result must beat integrating without the guard (plain
	// full disjunction of the three tables).
	fd, _ := table.FullDisjunction([]*table.Table{candA(), candB(), candC()}, 0)
	if metrics.EIS(src, got) < metrics.EIS(src, fd) {
		t.Errorf("guarded integration (%v) must not lose to plain FD (%v)",
			metrics.EIS(src, got), metrics.EIS(src, fd))
	}
}

func TestReclaimPerfectWithCleanTables(t *testing.T) {
	// A vertical partition of the source reclaims it perfectly.
	src := table.New("S", "k", "a", "b")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("a1"), table.S("b1"))
	src.AddRow(table.S("k2"), table.S("a2"), table.S("b2"))
	left := src.Project("k", "a")
	right := src.Project("k", "b")
	got := reclaim(t, New(src), []*table.Table{left, right})
	rep := metrics.Evaluate(src, got)
	if !rep.PerfectReclamation {
		t.Errorf("vertical partition not perfectly reclaimed: %+v\n%s", rep, got)
	}
}

func TestReclaimHorizontalUnion(t *testing.T) {
	// A horizontal partition (same schema) inner-unions back together.
	src := table.New("S", "k", "v")
	src.Key = []int{0}
	for _, kv := range [][2]string{{"k1", "v1"}, {"k2", "v2"}, {"k3", "v3"}} {
		src.AddRow(table.S(kv[0]), table.S(kv[1]))
	}
	top := src.Select(table.ColIn("k", map[string]bool{table.S("k1").Key(): true}))
	rest := src.Select(table.ColIn("k", map[string]bool{
		table.S("k2").Key(): true, table.S("k3").Key(): true,
	}))
	got := reclaim(t, New(src), []*table.Table{top, rest})
	if rep := metrics.Evaluate(src, got); !rep.PerfectReclamation {
		t.Errorf("horizontal partition not reclaimed: %+v\n%s", rep, got)
	}
}

func TestReclaimFiltersForeignRows(t *testing.T) {
	// Rows with keys outside the Source must be selected away (precision).
	src := source()
	extra := candB()
	extra.AddRow(table.S("foreign"), table.S("Nobody"), table.N(1))
	got := reclaim(t, New(src), []*table.Table{extra})
	for _, r := range got.Rows {
		if r[0].Equal(table.S("foreign")) {
			t.Errorf("foreign key survived ProjectSelect:\n%s", got)
		}
	}
}

func TestReclaimEmptyInputs(t *testing.T) {
	src := source()
	got := reclaim(t, New(src), nil)
	if len(got.Rows) != 0 || len(got.Cols) != len(src.Cols) {
		t.Errorf("empty reclamation must be an empty table with the source schema:\n%s", got)
	}
	// A table without the key contributes nothing.
	nokey := table.New("nk", "Name")
	nokey.AddRow(table.S("Smith"))
	got2 := reclaim(t, New(src), []*table.Table{nokey})
	if len(got2.Rows) != 0 {
		t.Errorf("keyless table produced rows:\n%s", got2)
	}
}

func TestReclaimOutputSchemaMatchesSource(t *testing.T) {
	src := source()
	got := reclaim(t, New(src), []*table.Table{candB()})
	if len(got.Cols) != len(src.Cols) {
		t.Fatalf("schema mismatch: %v", got.Cols)
	}
	for i, c := range src.Cols {
		if got.Cols[i] != c {
			t.Fatalf("column %d = %q, want %q", i, got.Cols[i], c)
		}
	}
	// Education (absent from B) must be all nulls.
	ei := got.ColIndex("Education")
	for _, r := range got.Rows {
		if !r[ei].IsNull() {
			t.Error("padded column contains non-null")
		}
	}
}

func TestReclaimLeavesNoLabels(t *testing.T) {
	src := source()
	in := New(src)
	got := reclaim(t, in, []*table.Table{candA(), candB(), candC()})
	for _, r := range got.Rows {
		for _, v := range r {
			if v.Kind == table.KindLabel {
				t.Fatalf("labeled null leaked into output: %s", got)
			}
		}
	}
}

func TestLabelStability(t *testing.T) {
	in := New(source())
	gender := in.src.ColIndex("Gender")
	a := in.label(1, gender)
	b := in.label(1, gender)
	c := in.label(2, gender)
	d := in.label(1, gender+1)
	if !a.Equal(b) {
		t.Error("same slot must get the same label")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different slots must get different labels")
	}
}

func TestIntegratorProjectSelect(t *testing.T) {
	src := source()
	in := New(src)

	// Keyed tables: the integrator path must agree with the package-level
	// one-shot form row for row.
	withExtra := candB()
	withExtra.Cols = append(withExtra.Cols, "Irrelevant")
	for i := range withExtra.Rows {
		withExtra.Rows[i] = append(withExtra.Rows[i], table.S("x"))
	}
	withExtra.AddRow(table.S("foreign"), table.S("Nobody"), table.N(1), table.S("x"))
	got := in.ProjectSelect(withExtra)
	want := ProjectSelect(src, withExtra)
	if got == nil || !table.EqualRows(got, want) {
		t.Fatalf("integrator ProjectSelect = %s, package-level = %s", got, want)
	}
	if got.HasCols("Irrelevant") {
		t.Error("non-source column survived projection")
	}
	for _, r := range got.Rows {
		if r[0].Equal(table.S("foreign")) {
			t.Errorf("foreign key survived selection:\n%s", got)
		}
	}

	// Key-less tables: the integrator path drops them (Reclaim's behavior),
	// while the package-level form keeps them for full-disjunction consumers.
	nokey := table.New("nk", "Name", "Education")
	nokey.AddRow(table.S("Smith"), table.S("Bachelors"))
	nokey.AddRow(table.S("Smith"), table.S("Bachelors"))
	if sel := in.ProjectSelect(nokey); sel != nil {
		t.Errorf("integrator kept a key-less table:\n%s", sel)
	}
	kept := ProjectSelect(src, nokey)
	if kept == nil || len(kept.Rows) != 1 {
		t.Errorf("package-level ProjectSelect must keep the key-less table deduplicated, got %s", kept)
	}

	// Nothing of the source's schema: both return nil.
	junk := table.New("junk", "x")
	junk.AddRow(table.S("a"))
	if in.ProjectSelect(junk) != nil || ProjectSelect(src, junk) != nil {
		t.Error("schema-disjoint table must project to nil")
	}
}
