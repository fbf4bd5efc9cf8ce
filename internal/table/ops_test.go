package table

import "testing"

func TestProject(t *testing.T) {
	s := figSource()
	p := s.Project("Name", "Age")
	if len(p.Cols) != 2 || p.Cols[0] != "Name" || p.Cols[1] != "Age" {
		t.Fatalf("bad projected schema: %v", p.Cols)
	}
	if !mustRows(p,
		Row{S("Smith"), N(27)},
		Row{S("Brown"), N(24)},
		Row{S("Wang"), N(32)},
	) {
		t.Errorf("bad projection rows:\n%s", p)
	}
	if len(p.Key) != 0 {
		t.Error("key must be dropped when key columns are projected out")
	}

	keep := s.Project("ID", "Name")
	if len(keep.Key) != 1 || keep.Cols[keep.Key[0]] != "ID" {
		t.Error("key must be preserved when key columns survive")
	}

	// Unknown columns are skipped silently.
	if got := s.Project("Name", "missing"); len(got.Cols) != 1 {
		t.Error("unknown projected column should be skipped")
	}
}

func TestSelect(t *testing.T) {
	s := figSource()
	young := s.Select(NumCompare("Age", "<", 30))
	if len(young.Rows) != 2 {
		t.Errorf("Age<30 selected %d rows, want 2", len(young.Rows))
	}
	male := s.Select(ColEquals("Gender", S("Male")))
	if len(male.Rows) != 1 || !male.Rows[0][1].Equal(S("Brown")) {
		t.Errorf("Gender=Male wrong: %s", male)
	}
	// Null never satisfies equality selection.
	null := s.Select(ColEquals("Gender", Null))
	if len(null.Rows) != 1 {
		// Smith's Gender is Null and Null.Equal(Null) is true by value
		// equality; selection on an explicit Null constant finds it.
		t.Errorf("explicit null selection found %d rows", len(null.Rows))
	}
	in := s.Select(ColIn("Name", map[string]bool{S("Wang").Key(): true}))
	if len(in.Rows) != 1 || !in.Rows[0][1].Equal(S("Wang")) {
		t.Errorf("ColIn wrong: %s", in)
	}
}

func TestNumCompareOperators(t *testing.T) {
	tbl := New("n", "x")
	tbl.AddRow(N(5))
	cases := []struct {
		op   string
		b    float64
		want int
	}{
		{"<", 6, 1}, {"<", 5, 0}, {"<=", 5, 1}, {">", 4, 1},
		{">=", 5, 1}, {"=", 5, 1}, {"!=", 5, 0}, {"!=", 4, 1},
	}
	for _, c := range cases {
		got := len(tbl.Select(NumCompare("x", c.op, c.b)).Rows)
		if got != c.want {
			t.Errorf("x %s %v: got %d rows, want %d", c.op, c.b, got, c.want)
		}
	}
	// Strings and nulls never match numeric comparison.
	tbl2 := New("n2", "x")
	tbl2.AddRow(S("five"))
	tbl2.AddRow(Null)
	if got := len(tbl2.Select(NumCompare("x", ">", 0)).Rows); got != 0 {
		t.Errorf("non-numeric rows matched numeric comparison: %d", got)
	}
}

func TestRename(t *testing.T) {
	b := figB().Rename(map[string]string{"Name": "Full Name"})
	if b.Cols[0] != "Full Name" || b.Cols[1] != "Age" {
		t.Errorf("Rename wrong: %v", b.Cols)
	}
}

func TestDropDuplicates(t *testing.T) {
	tbl := New("d", "a")
	tbl.AddRow(S("x"))
	tbl.AddRow(S("x"))
	tbl.AddRow(Null)
	tbl.AddRow(Null)
	tbl.AddRow(S("y"))
	got := tbl.DropDuplicates()
	if len(got.Rows) != 3 {
		t.Errorf("DropDuplicates left %d rows, want 3", len(got.Rows))
	}
}

func TestPadNullColumns(t *testing.T) {
	b := figB().PadNullColumns([]string{"Name", "Gender", "Status"})
	if len(b.Cols) != 4 {
		t.Fatalf("padded to %v", b.Cols)
	}
	for _, r := range b.Rows {
		if !r[2].IsNull() || !r[3].IsNull() {
			t.Error("padded cells must be null")
		}
	}
	same := figB().PadNullColumns([]string{"Name"})
	if len(same.Cols) != 2 {
		t.Error("no padding needed, schema changed anyway")
	}
}

func TestReorderCols(t *testing.T) {
	s := figSource()
	r, err := s.ReorderCols([]string{"Name", "ID", "Education Level", "Gender", "Age"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cols[0] != "Name" || r.Cols[1] != "ID" {
		t.Errorf("reorder wrong: %v", r.Cols)
	}
	if !r.Rows[0][1].Equal(N(0)) || !r.Rows[0][0].Equal(S("Smith")) {
		t.Error("values did not move with their columns")
	}
	if _, err := s.ReorderCols([]string{"nope"}); err == nil {
		t.Error("reorder to unknown column should fail")
	}
}

// TestViewsShareRows pins the views' allocation contract: Rename, InnerUnion
// and PadNullColumns with nothing to pad share their input rows, so each
// allocates the same number of objects over 10 rows as over 10 000; and a
// view's row order is its own.
func TestViewsShareRows(t *testing.T) {
	build := func(n int) *Table {
		tb := New("t", "k", "v")
		tb.Key = []int{0}
		for i := 0; i < n; i++ {
			tb.AddRow(N(float64(i)), S("x"))
		}
		return tb
	}
	ops := []struct {
		name string
		op   func(a, b *Table) *Table
	}{
		{"Rename", func(a, _ *Table) *Table { return a.Rename(map[string]string{"v": "w"}) }},
		{"InnerUnion", InnerUnion},
		{"PadNullColumns", func(a, _ *Table) *Table { return a.PadNullColumns([]string{"k", "v"}) }},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for i, n := range []int{10, 10000} {
				a, b := build(n), build(n)
				allocs[i] = testing.AllocsPerRun(20, func() { tc.op(a, b) })
				v := tc.op(a, b)
				if &v.Rows[0][0] != &a.Rows[0][0] {
					t.Fatalf("%s over %d rows copied the first row", tc.name, n)
				}
				v.Rows[0], v.Rows[n-1] = v.Rows[n-1], v.Rows[0]
				if a.Rows[0][0].Num != 0 {
					t.Fatalf("reordering the %s view reordered its input", tc.name)
				}
			}
			if allocs[0] != allocs[1] {
				t.Fatalf("%s allocates %v objects over 10 rows and %v over 10 000", tc.name, allocs[0], allocs[1])
			}
		})
	}
}

// ColEquals builds a predicate matching rows whose named column equals v.
func ColEquals(col string, v Value) Predicate {
	return func(t *Table, r Row) bool {
		i := t.ColIndex(col)
		return i >= 0 && r[i].Equal(v)
	}
}

// ColIn builds a predicate matching rows whose named column's value is in the
// given canonical-key set. Null never matches.
func ColIn(col string, keys map[string]bool) Predicate {
	return func(t *Table, r Row) bool {
		i := t.ColIndex(col)
		return i >= 0 && !r[i].IsNull() && keys[r[i].Key()]
	}
}
