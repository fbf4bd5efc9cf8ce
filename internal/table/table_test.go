package table

import (
	"sort"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	good := figSource()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}

	dup := New("d", "a", "a")
	if err := dup.Validate(); err == nil {
		t.Error("duplicate columns accepted")
	}

	ragged := New("r", "a", "b")
	ragged.Rows = append(ragged.Rows, Row{S("x")})
	if err := ragged.Validate(); err == nil {
		t.Error("ragged row accepted")
	}

	badKey := New("k", "a")
	badKey.Key = []int{5}
	if err := badKey.Validate(); err == nil {
		t.Error("out-of-range key accepted")
	}
}

func TestAddRowPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong width did not panic")
		}
	}()
	New("x", "a", "b").AddRow(S("only-one"))
}

func TestColIndexAndHasCols(t *testing.T) {
	s := figSource()
	if s.ColIndex("Age") != 2 {
		t.Errorf("ColIndex(Age) = %d", s.ColIndex("Age"))
	}
	if s.ColIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
	if !s.HasCols("ID", "Gender") || s.HasCols("ID", "nope") {
		t.Error("HasCols wrong")
	}
}

func TestRowKeyNullKeyAttr(t *testing.T) {
	s := figSource()
	r := Row{Null, S("X"), N(1), Null, Null}
	if s.RowKey(r) != "" {
		t.Error("row with null key attribute must produce empty key")
	}
	if s.RowKey(s.Rows[0]) == "" {
		t.Error("row with non-null key must produce a key")
	}
	keyless := figB()
	if keyless.RowKey(keyless.Rows[0]) != "" {
		t.Error("keyless table must produce empty row keys")
	}
}

func TestEqualRows(t *testing.T) {
	a, b := figA(), figA()
	// Same rows in a different order are equal as multisets.
	b.Rows[0], b.Rows[2] = b.Rows[2], b.Rows[0]
	if !EqualRows(a, b) {
		t.Error("row order should not matter")
	}
	b.Rows[0][1] = S("Changed")
	if EqualRows(a, b) {
		t.Error("changed value should break equality")
	}
	// Multiset semantics: duplicates must match in count.
	c, d := figA(), figA()
	c.Rows = append(c.Rows, c.Rows[0].Clone())
	if EqualRows(c, d) {
		t.Error("extra duplicate should break equality")
	}
	d.Rows = append(d.Rows, d.Rows[0].Clone())
	if !EqualRows(c, d) {
		t.Error("same duplicates should be equal")
	}
}

func TestSameInstance(t *testing.T) {
	a := figB() // Name, Age
	b := New("b2", "Age", "Name")
	for _, r := range a.Rows {
		b.AddRow(r[1], r[0])
	}
	if !SameInstance(a, b) {
		t.Error("column permutation should still be the same instance")
	}
	c := New("c", "Name", "Years")
	if SameInstance(a, c) {
		t.Error("different column names are different instances")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := figA()
	c := a.Clone()
	c.Rows[0][1] = S("Mutated")
	c.Cols[0] = "Mutated"
	if a.Rows[0][1].Str == "Mutated" || a.Cols[0] == "Mutated" {
		t.Error("Clone shares storage with the original")
	}
}

func TestColumnSetSkipsNulls(t *testing.T) {
	a := figA()
	set := a.ColumnSet(a.ColIndex("Education Level"))
	if len(set) != 2 {
		t.Errorf("got %d distinct values, want 2 (null skipped)", len(set))
	}
}

func TestSortRowsDeterministic(t *testing.T) {
	a := figA()
	b := figA()
	b.Rows[0], b.Rows[2] = b.Rows[2], b.Rows[0]
	a.SortRows()
	b.SortRows()
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			t.Fatal("SortRows did not canonicalize row order")
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := figSource().String()
	for _, want := range []string{"Source", "ID", "Smith", "—", "key="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestNumCells(t *testing.T) {
	if got := figSource().NumCells(); got != 15 {
		t.Errorf("NumCells = %d, want 15", got)
	}
}

// Equal reports whether two rows have identical values position-wise.
func (r Row) Equal(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !r[i].Equal(s[i]) {
			return false
		}
	}
	return true
}

// SortRows orders rows deterministically (leftmost column first); useful for
// stable rendering and golden tests.
func (t *Table) SortRows() {
	sort.Slice(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i], t.Rows[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
