package integrate

import (
	"slices"
	"testing"

	"gent/internal/table"
)

func guardSource() *table.Table {
	s := table.New("S", "k", "a", "b")
	s.Key = []int{0}
	s.AddRow(table.S("k1"), table.S("a1"), table.S("b1"))
	s.AddRow(table.S("k2"), table.S("a2"), table.Null)
	return s
}

func TestScorerE(t *testing.T) {
	in := New(guardSource())
	acc := table.New("acc", "k", "a", "b")
	s := in.scorer(acc)
	if s == nil {
		t.Fatal("scorer failed")
	}
	// e scores a row against the labeled Source row of its key group.
	e := func(r table.Row) float64 {
		_, ids, _ := in.keys.Groups([]table.Row{r}, s.keyIdx, in.group)
		if ids[0] < 0 {
			t.Fatalf("row %v aligns with no Source row", r)
		}
		return s.e(in.labeledSrc.Rows[in.keys.Rep(ids[0])], r)
	}
	perfect := table.Row{table.S("k1"), table.S("a1"), table.S("b1")}
	if got := e(perfect); got != 1 {
		t.Errorf("E(perfect) = %v", got)
	}
	nullified := table.Row{table.S("k1"), table.S("a1"), table.Null}
	if got := e(nullified); got != 0.5 {
		t.Errorf("E(nullified) = %v", got)
	}
	erroneous := table.Row{table.S("k1"), table.S("a1"), table.S("WRONG")}
	if got := e(erroneous); got != 0 {
		t.Errorf("E(erroneous) = %v, want (1-1)/2", got)
	}
	// A foreign key falls in the pass-through group, which no guard scores.
	foreign := table.Row{table.S("nope"), table.S("x"), table.S("y")}
	mixed := &table.Table{Cols: acc.Cols, Rows: []table.Row{perfect, foreign, erroneous, foreign}}
	pos, ids, ends := in.keys.Groups(mixed.Rows, s.keyIdx, in.group)
	if !slices.Equal(pos, []int32{0, 2, 1, 3}) || !slices.Equal(ids, []int{0, -1}) || !slices.Equal(ends, []int{2, 4}) {
		t.Errorf("Groups = %v %v %v, want the k1 group then the pass-through group, two rows each", pos, ids, ends)
	}
	if got := in.guardedSubsume(mixed); got.NumRows() != 3 {
		t.Errorf("guardedSubsume kept %d rows, want k1's two and one foreign row", got.NumRows())
	}
	// A preserved label counts as a match: k2's b is a labeled source null.
	labeled := in.labelSourceNulls(func() *table.Table {
		a := table.New("x", "k", "a", "b")
		a.AddRow(table.S("k2"), table.S("a2"), table.Null)
		return a
	}())
	if got := e(labeled.Rows[0]); got != 1 {
		t.Errorf("E(label-preserving) = %v, want 1", got)
	}
}

func TestGuardedComplementMergesCleanPairs(t *testing.T) {
	in := New(guardSource())
	acc := table.New("acc", "k", "a", "b")
	acc.AddRow(table.S("k1"), table.S("a1"), table.Null)
	acc.AddRow(table.S("k1"), table.Null, table.S("b1"))
	got := in.guardedComplement(acc)
	if len(got.Rows) != 1 {
		t.Fatalf("clean complement not merged:\n%s", got)
	}
	want := table.Row{table.S("k1"), table.S("a1"), table.S("b1")}
	if !slices.EqualFunc(got.Rows[0], want, table.Value.Equal) {
		t.Errorf("merged = %v", got.Rows[0])
	}
}

func TestGuardedComplementBlocksNetZeroMerge(t *testing.T) {
	// Merging would add one correct (a1) and one erroneous (WRONG for b1)
	// value — net zero, which must be blocked so the real b1 can merge
	// later.
	in := New(guardSource())
	acc := table.New("acc", "k", "a", "b")
	acc.AddRow(table.S("k1"), table.S("a1"), table.Null)
	acc.AddRow(table.S("k1"), table.Null, table.S("WRONG"))
	got := in.guardedComplement(acc)
	if len(got.Rows) != 2 {
		t.Errorf("net-zero merge happened:\n%s", got)
	}
}

func TestGuardedSubsumeKeepsBetterSubsumed(t *testing.T) {
	in := New(guardSource())
	acc := table.New("acc", "k", "a", "b")
	acc.AddRow(table.S("k1"), table.S("a1"), table.S("WRONG")) // subsumer, E=0
	acc.AddRow(table.S("k1"), table.S("a1"), table.Null)       // subsumed, E=0.5
	got := in.guardedSubsume(acc)
	if len(got.Rows) != 2 {
		t.Errorf("better-scoring subsumed tuple removed:\n%s", got)
	}

	// With a correct subsumer, the subsumed tuple goes.
	acc2 := table.New("acc", "k", "a", "b")
	acc2.AddRow(table.S("k1"), table.S("a1"), table.S("b1"))
	acc2.AddRow(table.S("k1"), table.S("a1"), table.Null)
	got2 := in.guardedSubsume(acc2)
	if len(got2.Rows) != 1 {
		t.Errorf("subsumed tuple survived a correct subsumer:\n%s", got2)
	}
}

// TestGuardedOpsPreserveRowsWithoutKeys: rows that align with no Source
// tuple — a null key, a foreign key — pass through both guards untouched,
// even where the plain operators would complement or subsume them.
func TestGuardedOpsPreserveRowsWithoutKeys(t *testing.T) {
	in := New(guardSource())
	acc := table.New("acc", "k", "a", "b")
	acc.AddRow(table.Null, table.S("x"), table.S("y"))
	acc.AddRow(table.S("nope"), table.S("x"), table.Null)
	acc.AddRow(table.S("nope"), table.Null, table.S("y"))
	if got := in.guardedComplement(acc); len(got.Rows) != 3 {
		t.Errorf("unaligned rows changed in complement:\n%s", got)
	}
	acc.AddRow(table.S("nope"), table.S("x"), table.S("y"))
	if got := in.guardedSubsume(acc); len(got.Rows) != 4 {
		t.Errorf("unaligned rows changed in subsume:\n%s", got)
	}
}
