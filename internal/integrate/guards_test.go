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

// guardGroup returns rows as one key group the way the fold holds it: at
// the Source's width, correct nulls labeled, with its key's labeled Source
// row.
func guardGroup(t *testing.T, in *Integrator, rows ...table.Row) (table.Row, []table.Row) {
	t.Helper()
	id, ok := in.keys.Lookup(rows[0], in.src.Key)
	if !ok {
		t.Fatalf("row %v aligns with no Source row", rows[0])
	}
	for _, r := range rows {
		in.labelNulls(id, r)
	}
	return in.labeledRow(id), rows
}

func TestScorerE(t *testing.T) {
	in := New(guardSource())
	// score is E's numerator α−δ against the labeled Source row of the
	// row's key group; n is 2 here.
	e := func(r table.Row) int {
		srow, grp := guardGroup(t, in, r)
		return in.score(srow, grp[0], grp[0])
	}
	perfect := table.Row{table.S("k1"), table.S("a1"), table.S("b1")}
	if got := e(perfect); got != 2 {
		t.Errorf("E(perfect) numerator = %v, want 2", got)
	}
	nullified := table.Row{table.S("k1"), table.S("a1"), table.Null}
	if got := e(nullified); got != 1 {
		t.Errorf("E(nullified) numerator = %v, want 1", got)
	}
	erroneous := table.Row{table.S("k1"), table.S("a1"), table.S("WRONG")}
	if got := e(erroneous); got != 0 {
		t.Errorf("E(erroneous) numerator = %v, want 1-1", got)
	}
	// A preserved label counts as a match: k2's b is a labeled source null.
	if got := e(table.Row{table.S("k2"), table.S("a2"), table.Null}); got != 2 {
		t.Errorf("E(label-preserving) numerator = %v, want 2", got)
	}
	// A pair scores as its κ merge would, without building it.
	a := table.Row{table.S("k1"), table.Null, table.S("WRONG")}
	b := table.Row{table.S("k1"), table.S("a1"), table.S("b1")}
	srow, _ := guardGroup(t, in, a, b)
	m := table.MergeComplement(a, b)
	if got, want := in.score(srow, a, b), in.score(srow, m, m); got != want || got != 0 {
		t.Errorf("score(a, b) = %d, merge scores %d, want both 0", got, want)
	}
}

func TestGuardedComplementMergesCleanPairs(t *testing.T) {
	in := New(guardSource())
	got := in.reduce(guardGroup(t, in,
		table.Row{table.S("k1"), table.S("a1"), table.Null},
		table.Row{table.S("k1"), table.Null, table.S("b1")}))
	if len(got) != 1 {
		t.Fatalf("clean complement not merged: %v", got)
	}
	want := table.Row{table.S("k1"), table.S("a1"), table.S("b1")}
	if !slices.EqualFunc(got[0], want, table.Value.Equal) {
		t.Errorf("merged = %v", got[0])
	}
}

func TestGuardedComplementBlocksNetZeroMerge(t *testing.T) {
	// Merging would add one correct (a1) and one erroneous (WRONG for b1)
	// value — net zero, which must be blocked so the real b1 can merge
	// later.
	in := New(guardSource())
	got := in.reduce(guardGroup(t, in,
		table.Row{table.S("k1"), table.S("a1"), table.Null},
		table.Row{table.S("k1"), table.Null, table.S("WRONG")}))
	if len(got) != 2 {
		t.Errorf("net-zero merge happened: %v", got)
	}
}

func TestGuardedSubsumeKeepsBetterSubsumed(t *testing.T) {
	in := New(guardSource())
	got := in.reduce(guardGroup(t, in,
		table.Row{table.S("k1"), table.S("a1"), table.S("WRONG")}, // subsumer, E=0
		table.Row{table.S("k1"), table.S("a1"), table.Null}))      // subsumed, E=0.5
	if len(got) != 2 {
		t.Errorf("better-scoring subsumed tuple removed: %v", got)
	}

	// With a correct subsumer, the subsumed tuple goes, and so does a
	// duplicate.
	got2 := in.reduce(guardGroup(t, in,
		table.Row{table.S("k1"), table.S("a1"), table.S("b1")},
		table.Row{table.S("k1"), table.S("a1"), table.Null},
		table.Row{table.S("k1"), table.S("a1"), table.S("b1")}))
	if len(got2) != 1 {
		t.Errorf("subsumed tuple or duplicate survived a correct subsumer: %v", got2)
	}
}

// TestFoldDropsRowsWithoutKeys: rows that align with no Source tuple — a
// null key, a foreign key — never reach the guards. ReclaimContext drops
// them on entry, so they change nothing even where the plain operators
// would complement or subsume them with keyed rows or one another.
func TestFoldDropsRowsWithoutKeys(t *testing.T) {
	src := guardSource()
	keyed := table.New("keyed", "k", "a", "b")
	keyed.AddRow(table.S("k1"), table.S("a1"), table.Null)
	loose := table.New("loose", "k", "a", "b")
	loose.AddRow(table.Null, table.S("x"), table.S("y"))
	loose.AddRow(table.S("nope"), table.S("x"), table.Null)
	loose.AddRow(table.S("nope"), table.Null, table.S("y"))
	loose.AddRow(table.Null, table.S("a1"), table.S("b1"))
	if got := reclaim(t, New(src), []*table.Table{loose}); len(got.Rows) != 0 {
		t.Errorf("unaligned rows reclaimed:\n%s", got)
	}
	want := reclaim(t, New(src), []*table.Table{keyed})
	if got := reclaim(t, New(src), []*table.Table{keyed, loose}); sameReclaimed(got, want) != "" {
		t.Errorf("unaligned rows changed the reclamation:\n%s\nwant:\n%s", got, want)
	}
}
