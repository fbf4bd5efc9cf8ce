package table

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInnerJoin(t *testing.T) {
	j := InnerJoin(figA(), figB()) // shares Name
	if len(j.Cols) != 4 {
		t.Fatalf("schema: %v", j.Cols)
	}
	if !mustRows(j.Project("ID", "Name", "Age"),
		Row{N(0), S("Smith"), N(27)},
		Row{N(1), S("Brown"), N(24)},
		Row{N(2), S("Wang"), N(32)},
	) {
		t.Errorf("inner join wrong:\n%s", j)
	}
}

func TestInnerJoinNullsNeverMatch(t *testing.T) {
	a := New("a", "k", "x")
	a.AddRow(Null, S("p"))
	b := New("b", "k", "y")
	b.AddRow(Null, S("q"))
	if got := InnerJoin(a, b); len(got.Rows) != 0 {
		t.Error("null join keys matched")
	}
}

func TestInnerJoinNoSharedCols(t *testing.T) {
	if got := InnerJoin(figB(), New("z", "other")); len(got.Rows) != 0 {
		t.Error("join without shared columns must be empty")
	}
}

func TestLeftJoin(t *testing.T) {
	b := New("b", "Name", "Age")
	b.AddRow(S("Smith"), N(27)) // only Smith has an age
	j := LeftJoin(figA(), b)
	if len(j.Rows) != 3 {
		t.Fatalf("left join lost rows:\n%s", j)
	}
	var brownAge Value
	for _, r := range j.Rows {
		if r[1].Equal(S("Brown")) {
			brownAge = r[3]
		}
	}
	if !brownAge.IsNull() {
		t.Error("dangling left row must have null right attributes")
	}
}

func TestFullOuterJoin(t *testing.T) {
	a := New("a", "Name", "Age")
	a.AddRow(S("Smith"), N(27))
	a.AddRow(S("OnlyA"), N(1))
	b := New("b", "Name", "Gender")
	b.AddRow(S("Smith"), S("Male"))
	b.AddRow(S("OnlyB"), S("Female"))
	j := FullOuterJoin(a, b)
	want := New("w", "Name", "Age", "Gender")
	want.AddRow(S("Smith"), N(27), S("Male"))
	want.AddRow(S("OnlyA"), N(1), Null)
	want.AddRow(S("OnlyB"), Null, S("Female"))
	if !SameInstance(j, want) {
		t.Errorf("full outer join wrong:\n%s", j)
	}
}

func TestCrossProduct(t *testing.T) {
	a := New("a", "x")
	a.AddRow(N(1))
	a.AddRow(N(2))
	b := New("b", "y")
	b.AddRow(S("p"))
	b.AddRow(S("q"))
	cp := CrossProduct(a, b)
	if len(cp.Rows) != 4 || len(cp.Cols) != 2 {
		t.Errorf("cross product wrong:\n%s", cp)
	}
}

// keyedPair generates pairs of minimal-form tables that share exactly one
// column "k" whose values are unique within each table — the regime in which
// the representative-operator lemmas (Appendix A) hold and κ is confluent.
type keyedPair struct{ A, B *Table }

// Generate implements quick.Generator.
func (keyedPair) Generate(r *rand.Rand, _ int) reflect.Value {
	mk := func(name, extra string) *Table {
		t := New(name, "k", extra)
		n := 1 + r.Intn(4)
		perm := r.Perm(8)
		for i := 0; i < n; i++ {
			var v Value
			if r.Intn(4) == 0 {
				v = Null
			} else {
				v = S(string(rune('a' + r.Intn(5))))
			}
			t.AddRow(N(float64(perm[i])), v)
		}
		return t
	}
	return reflect.ValueOf(keyedPair{mk("A", "a"), mk("B", "b")})
}

// selectJoinable keeps tuples whose k value appears non-null in both inputs
// — the σ(T1.C = T2.C ≠ ⊥) of Lemma 12.
func selectJoinable(t, a, b *Table) *Table {
	ka := a.ColumnSet(a.ColIndex("k"))
	kb := b.ColumnSet(b.ColIndex("k"))
	both := make(map[string]bool)
	for k := range ka {
		if kb[k] {
			both[k] = true
		}
	}
	return t.Select(ColIn("k", both))
}

func TestLemma12InnerJoinViaRepresentativeOps(t *testing.T) {
	// Lemma 12: T1 ⋈ T2 = σ(T1.C = T2.C ≠ ⊥, β(κ(T1 ⊎ T2))) for tables in
	// minimal form with key-like join columns.
	prop := func(p keyedPair) bool {
		want := InnerJoin(p.A, p.B)
		got := selectJoinable(Subsume(Complement(OuterUnion(p.A, p.B))), p.A, p.B)
		return SameInstance(want, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestLemma13LeftJoinViaRepresentativeOps(t *testing.T) {
	// Lemma 13: T1 ⟕ T2 = β((T1 ⋈ T2) ⊎ T1).
	prop := func(p keyedPair) bool {
		want := LeftJoin(p.A, p.B)
		got := Subsume(OuterUnion(InnerJoin(p.A, p.B), p.A))
		return SameInstance(want, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestLemma14OuterJoinViaRepresentativeOps(t *testing.T) {
	// Lemma 14: T1 ⟗ T2 = β(β((T1 ⋈ T2) ⊎ T1) ⊎ T2).
	prop := func(p keyedPair) bool {
		want := FullOuterJoin(p.A, p.B)
		got := Subsume(OuterUnion(Subsume(OuterUnion(InnerJoin(p.A, p.B), p.A)), p.B))
		return SameInstance(want, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestLemma15CrossProductViaRepresentativeOps(t *testing.T) {
	// Lemma 15: T1 × T2 = κ-closure(π((C_T1, c), T1) ⊎ π((C_T2, c), T2)) with
	// a shared constant column c, then dropping c and the un-merged
	// originals via subsumption.
	a := New("a", "x")
	a.AddRow(N(1))
	a.AddRow(N(2))
	b := New("b", "y")
	b.AddRow(S("p"))
	b.AddRow(S("q"))

	withC := func(t *Table) *Table {
		out := New(t.Name, append(append([]string(nil), t.Cols...), "c")...)
		for _, r := range t.Rows {
			out.Rows = append(out.Rows, append(r.Clone(), S("const")))
		}
		return out
	}
	u := OuterUnion(withC(a), withC(b))
	closed, truncated := ComplementClosure(u, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	got := closed.Project("x", "y")
	want := CrossProduct(a, b)
	if !SameInstance(got, want) {
		t.Errorf("cross product via κ-closure wrong:\n%s", got)
	}
}

// CrossProduct returns a × b; the tables must not share column names.
func CrossProduct(a, b *Table) *Table {
	cols := append(append([]string(nil), a.Cols...), b.Cols...)
	out := New(a.Name+"×"+b.Name, cols...)
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			nr := make(Row, 0, len(cols))
			nr = append(nr, ra.Clone()...)
			nr = append(nr, rb.Clone()...)
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}
