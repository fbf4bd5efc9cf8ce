package matrix

import (
	"context"
	"testing"

	"gent/internal/table"
)

// traverse runs TraverseContext under a background context; the engine fails
// only on cancellation, so any error fails the test.
func traverse(tb testing.TB, src *table.Table, cands []*table.Table, enc Encoding, opts TraverseOptions) []int {
	tb.Helper()
	picks, err := TraverseContext(context.Background(), src, cands, enc, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return picks
}

// source is the running example source (key "ID").
func source() *table.Table {
	s := table.New("Source", "ID", "Name", "Age", "Gender", "Education")
	s.Key = []int{0}
	s.AddRow(table.S("id0"), table.S("Smith"), table.N(27), table.Null, table.S("Bachelors"))
	s.AddRow(table.S("id1"), table.S("Brown"), table.N(24), table.S("Male"), table.S("Masters"))
	s.AddRow(table.S("id2"), table.S("Wang"), table.N(32), table.S("Female"), table.S("High School"))
	return s
}

// candA mirrors Figure 3's Table A (ID, Name, Education).
func candA() *table.Table {
	a := table.New("A", "ID", "Name", "Education")
	a.AddRow(table.S("id0"), table.S("Smith"), table.S("Bachelors"))
	a.AddRow(table.S("id1"), table.S("Brown"), table.Null)
	a.AddRow(table.S("id2"), table.S("Wang"), table.S("High School"))
	return a
}

// candB mirrors Table B after Expand gave it the key (ID, Name, Age).
func candB() *table.Table {
	b := table.New("B", "ID", "Name", "Age")
	b.AddRow(table.S("id0"), table.S("Smith"), table.N(27))
	b.AddRow(table.S("id1"), table.S("Brown"), table.N(24))
	b.AddRow(table.S("id2"), table.S("Wang"), table.N(32))
	return b
}

// candC mirrors Table C after Expand: all-Male genders, contradicting the
// Source for Smith (null) and Wang (Female).
func candC() *table.Table {
	c := table.New("C", "ID", "Name", "Gender")
	c.AddRow(table.S("id0"), table.S("Smith"), table.S("Male"))
	c.AddRow(table.S("id1"), table.S("Brown"), table.S("Male"))
	c.AddRow(table.S("id2"), table.S("Wang"), table.S("Male"))
	return c
}

// mkTuple builds a tuple from raw codes, computing the cached α−δ the way
// FromTable would.
func mkTuple(isKey []bool, code ...int8) tuple {
	ad := 0
	for i, c := range code {
		if isKey[i] {
			continue
		}
		switch c {
		case 1:
			ad++
		case -1:
			ad--
		}
	}
	return tuple{code: code, ad: ad}
}

func TestFromTableEncoding(t *testing.T) {
	shape := NewShape(source())
	m := FromTable(shape, candC(), ThreeValued)
	// Row id0: ID=1, Name=1, Age=0 (missing col), Gender=-1 (Male vs source
	// null), Education=0.
	code := m.rows[shape.keys.RowIDs()[0]]
	if len(code) != 1 {
		t.Fatalf("want 1 aligned tuple, got %d", len(code))
	}
	want := []int8{1, 1, 0, -1, 0}
	if !equalCodes(code[0].code, want) {
		t.Errorf("code = %v, want %v", code[0].code, want)
	}
	// The cached α−δ must equal a rescan: Name +1, Gender −1 → 0.
	if code[0].ad != 0 {
		t.Errorf("cached α−δ = %d, want 0", code[0].ad)
	}
	// Row id1: Gender matches (Male = Male) → +1.
	code1 := m.rows[shape.keys.RowIDs()[1]]
	if code1[0].code[3] != 1 {
		t.Errorf("matching gender coded %d, want 1", code1[0].code[3])
	}
	// Row id2: Female vs Male → -1.
	code2 := m.rows[shape.keys.RowIDs()[2]]
	if code2[0].code[3] != -1 {
		t.Errorf("contradicting gender coded %d, want -1", code2[0].code[3])
	}
}

func TestFromTableTwoValuedCollapses(t *testing.T) {
	shape := NewShape(source())
	m := FromTable(shape, candC(), TwoValued)
	code := m.rows[shape.keys.RowIDs()[2]]
	if code[0].code[3] != 0 {
		t.Errorf("two-valued contradiction coded %d, want 0", code[0].code[3])
	}
}

func TestFromTableIgnoresForeignKeys(t *testing.T) {
	shape := NewShape(source())
	c := table.New("X", "ID", "Name")
	c.AddRow(table.S("unknown"), table.S("Nobody"))
	c.AddRow(table.Null, table.S("NullKey"))
	m := FromTable(shape, c, ThreeValued)
	if len(m.rows) != 0 {
		t.Error("rows with foreign or null keys must not align")
	}
}

func TestFromTableWithoutKeyColumn(t *testing.T) {
	shape := NewShape(source())
	c := table.New("X", "Name")
	c.AddRow(table.S("Smith"))
	m := FromTable(shape, c, ThreeValued)
	if len(m.rows) != 0 {
		t.Error("a candidate without the key cannot align")
	}
}

func TestConflictsAndOr(t *testing.T) {
	noKey := []bool{false, false, false}
	a := mkTuple(noKey, 1, 0, -1)
	b := mkTuple(noKey, 1, 1, 0)
	if conflicts(a.code, b.code) {
		t.Error("no position has differing non-zeros")
	}
	c := mkTuple(noKey, 1, 0, 1)
	if !conflicts(a.code, c.code) {
		t.Error("1 vs -1 at the same position must conflict")
	}
	got := or(a, b, noKey)
	if !equalCodes(got.code, []int8{1, 1, 0}) {
		t.Errorf("or = %v", got.code)
	}
	if got.ad != 2 {
		t.Errorf("or cached α−δ = %d, want 2", got.ad)
	}
}

func TestCombineKeepsConflictsSeparate(t *testing.T) {
	// Example 10: combining OR(A,B) with C finds a (1) and (¬1) in the first
	// tuple's Gender — both tuples must be kept.
	shape := NewShape(source())
	ab := Combine(FromTable(shape, candA(), ThreeValued), FromTable(shape, candB(), ThreeValued))
	abc := Combine(ab, FromTable(shape, candC(), ThreeValued))

	// id0: merged (1,1,1,1,1) from A,B (null Gender agrees) conflicts with
	// C's (1,1,0,-1,0) → two tuples.
	if got := len(abc.rows[shape.keys.RowIDs()[0]]); got != 2 {
		t.Errorf("id0 has %d aligned tuples, want 2 (conflict kept separate)", got)
	}
	// id1: C's Male is correct → merges into one tuple with Gender=1.
	list1 := abc.rows[shape.keys.RowIDs()[1]]
	if len(list1) != 1 || list1[0].code[3] != 1 {
		t.Errorf("id1 = %v, want single tuple with Gender 1", list1)
	}
	// id2: OR(A,B) has Gender=0 (value missing) and C has -1; per Equation 5
	// only differing non-zeros conflict, so they merge with max(0,-1)=0 —
	// matching Figure 5's combined matrix, where Wang's Gender stays 0.
	list2 := abc.rows[shape.keys.RowIDs()[2]]
	if len(list2) != 1 || list2[0].code[3] != 0 {
		t.Errorf("id2 = %v, want single tuple with Gender 0", list2)
	}
}

func TestEISOfSimulatedIntegration(t *testing.T) {
	shape := NewShape(source())
	a := FromTable(shape, candA(), ThreeValued)
	b := FromTable(shape, candB(), ThreeValued)
	ab := Combine(a, b)
	// id0: (1,1,1,1,1) → E=1; id1: (1,1,1,0,0) → E=.5; id2: (1,1,1,0,1) →
	// E=.75. EIS = (1 + .75 + .875)/3 = 0.875.
	if got := ab.EIS(); got < 0.874 || got > 0.876 {
		t.Errorf("EIS(A,B) = %v, want 0.875", got)
	}
	if s := a.EIS(); s <= 0 || s >= 1 {
		t.Errorf("standalone EIS out of range: %v", s)
	}
}

func TestTraversePicksUsefulTables(t *testing.T) {
	src := source()
	cands := []*table.Table{candA(), candB(), candC()}
	picked := traverse(t, src, cands, ThreeValued, TraverseOptions{})
	if len(picked) != 3 {
		t.Fatalf("picked %v, want all three (C improves Brown's gender)", picked)
	}
	// B standalone covers the most values (Age + null-agreeing Gender), so
	// it starts the traversal.
	if picked[0] != 1 {
		t.Errorf("start table = %d, want B (1)", picked[0])
	}
}

func TestTraverseRejectsGarbage(t *testing.T) {
	src := source()
	garbage := table.New("G", "ID", "Name", "Age", "Gender", "Education")
	garbage.AddRow(table.S("id0"), table.S("X"), table.N(99), table.S("Y"), table.S("Z"))
	garbage.AddRow(table.S("id1"), table.S("X"), table.N(99), table.S("Y"), table.S("Z"))
	cands := []*table.Table{candA(), candB(), garbage}
	picked := traverse(t, src, cands, ThreeValued, TraverseOptions{})
	for _, i := range picked {
		if i == 2 {
			t.Error("all-contradiction table was picked as originating")
		}
	}
	if len(picked) != 2 {
		t.Errorf("picked %v, want exactly A and B", picked)
	}
}

func TestTraverseConvergenceStopsEarly(t *testing.T) {
	// A duplicate of a picked table adds nothing and must not be picked:
	// traversal exits when EIS stops improving.
	src := source()
	cands := []*table.Table{candB(), candB().Clone(), candA()}
	picked := traverse(t, src, cands, ThreeValued, TraverseOptions{})
	if len(picked) != 2 {
		t.Errorf("picked %v, want 2 (duplicate adds nothing)", picked)
	}
}

func TestTraverseEmptyInput(t *testing.T) {
	if got := traverse(t, source(), nil, ThreeValued, TraverseOptions{}); got != nil {
		t.Errorf("empty input picked %v", got)
	}
}

func TestThreeValuedBeatsTwoValuedOnErroneousData(t *testing.T) {
	// The ablation's core claim: with three-valued matrices, a nullified
	// variant scores strictly higher than an erroneous variant of the same
	// table; with two-valued matrices they are indistinguishable.
	src := source()
	nullified := table.New("N", "ID", "Name", "Age")
	nullified.AddRow(table.S("id0"), table.S("Smith"), table.Null)
	erroneous := table.New("E", "ID", "Name", "Age")
	erroneous.AddRow(table.S("id0"), table.S("Smith"), table.N(999))

	shape := NewShape(src)
	n3 := FromTable(shape, nullified, ThreeValued).EIS()
	e3 := FromTable(shape, erroneous, ThreeValued).EIS()
	if n3 <= e3 {
		t.Errorf("three-valued: nullified (%v) must beat erroneous (%v)", n3, e3)
	}
	n2 := FromTable(shape, nullified, TwoValued).EIS()
	e2 := FromTable(shape, erroneous, TwoValued).EIS()
	if n2 != e2 {
		t.Errorf("two-valued should not distinguish: %v vs %v", n2, e2)
	}
}

func TestNormalizeMergesAndDedupes(t *testing.T) {
	noKey := []bool{false, false, false}
	list := []tuple{mkTuple(noKey, 1, 0, 0), mkTuple(noKey, 0, 1, 0), mkTuple(noKey, 1, 1, 0)}
	got := normalize(list, noKey)
	if len(got) != 1 || !equalCodes(got[0].code, []int8{1, 1, 0}) {
		t.Errorf("normalize = %v", got)
	}
	if got[0].ad != 2 {
		t.Errorf("normalized cached α−δ = %d, want 2", got[0].ad)
	}
	noKey2 := []bool{false, false}
	conflicting := []tuple{mkTuple(noKey2, 1, -1), mkTuple(noKey2, 1, 1)}
	if got := normalize(conflicting, noKey2); len(got) != 2 {
		t.Errorf("conflicting tuples merged: %v", got)
	}
}
