package benchmark

import (
	"math/rand"
	"testing"

	"gent/internal/table"
	"gent/internal/tpch"
)

func TestGenerateQueriesShape(t *testing.T) {
	qs := GenerateQueries(7)
	if len(qs) != 26 {
		t.Fatalf("generated %d queries, want 26", len(qs))
	}
	counts := map[QueryClass]int{}
	for _, q := range qs {
		counts[q.Class]++
	}
	if counts[ClassPSU] != 10 || counts[ClassOneJoin] != 8 || counts[ClassMultiJoin] != 8 {
		t.Errorf("class distribution wrong: %v", counts)
	}
}

func TestQueriesDeterministic(t *testing.T) {
	l := tpch.Generate(tpch.Small)
	a := GenerateQueries(7)
	b := GenerateQueries(7)
	for i := range a {
		sa, err := a[i].Execute(l)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b[i].Execute(l)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualRows(sa, sb) {
			t.Fatalf("query %s not deterministic", a[i].Name)
		}
	}
}

func TestQueryResultsHaveValidKeys(t *testing.T) {
	l := tpch.Generate(tpch.Small)
	for _, q := range GenerateQueries(7) {
		src, err := q.Execute(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(src.Key) == 0 {
			t.Fatalf("%s has no key", q.Name)
		}
		seen := map[string]bool{}
		for _, r := range src.Rows {
			k := src.RowKey(r)
			if k == "" {
				t.Fatalf("%s has a null key value", q.Name)
			}
			if seen[k] {
				t.Fatalf("%s has duplicate key %q", q.Name, k)
			}
			seen[k] = true
		}
	}
}

func TestMakeVariantsJointlyComplete(t *testing.T) {
	orig := tpch.Generate(tpch.Small).Snapshot().Get("customer")
	v := MakeVariants(orig, protectedJoinCols, 0.5, 0.5, newRand(3))
	// The two nullified variants must jointly cover every original value.
	n1, n2 := v.Nullified[0], v.Nullified[1]
	for i, r := range orig.Rows {
		for j := range orig.Cols {
			a, b := n1.Rows[i][j], n2.Rows[i][j]
			if a.IsNull() && b.IsNull() && !r[j].IsNull() {
				t.Fatalf("value (%d,%d) lost in both nullified variants", i, j)
			}
		}
	}
	// The key column is never perturbed.
	ki := orig.ColIndex("custkey")
	for _, vt := range v.All() {
		for i, r := range vt.Rows {
			if !r[ki].Equal(orig.Rows[i][ki]) {
				t.Fatal("protected key column was perturbed")
			}
		}
	}
	// Erroneous variants contain values not in the original.
	found := false
	for i, r := range v.Erroneous[0].Rows {
		for j := range r {
			if !r[j].Equal(orig.Rows[i][j]) && !r[j].IsNull() {
				found = true
			}
		}
	}
	if !found {
		t.Error("erroneous variant has no erroneous values")
	}
}

func TestNullifyRate(t *testing.T) {
	orig := tpch.Generate(tpch.Small).Snapshot().Get("orders")
	protected := map[int]bool{0: true}
	got, mask := Nullify(orig, 0.3, protected, newRand(5), nil)
	nulls := 0
	total := 0
	for i, r := range got.Rows {
		for j, v := range r {
			if protected[j] {
				continue
			}
			total++
			if v.IsNull() && !orig.Rows[i][j].IsNull() {
				nulls++
			}
		}
	}
	rate := float64(len(mask)) / float64(total)
	if rate < 0.29 || rate > 0.31 {
		t.Errorf("mask rate = %v, want ~0.3", rate)
	}
	if nulls == 0 {
		t.Error("no values nullified")
	}
}

func TestBuildTPTR(t *testing.T) {
	b, err := BuildTPTR("tp-tr-small", DefaultTPTROptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Lake.Snapshot().Len(); n != 32 {
		t.Errorf("lake has %d tables, want 32 (4 variants × 8 tables)", n)
	}
	if len(b.Sources) == 0 || len(b.Sources) != len(b.Queries) {
		t.Fatalf("sources/queries misaligned: %d vs %d", len(b.Sources), len(b.Queries))
	}
	for _, src := range b.Sources {
		set := b.IntegratingTables(src.Name)
		if len(set) == 0 {
			t.Errorf("%s has no integrating set", src.Name)
		}
		if len(set)%4 != 0 {
			t.Errorf("%s integrating set size %d not a multiple of 4", src.Name, len(set))
		}
	}
}

func TestAddDistractors(t *testing.T) {
	b, err := BuildTPTR("tp-tr", DefaultTPTROptions())
	if err != nil {
		t.Fatal(err)
	}
	before := b.Lake.Snapshot().Len()
	AddDistractors(b.Lake, 40, 10, 9)
	if n := b.Lake.Snapshot().Len(); n != before+40 {
		t.Errorf("distractors not added: %d", n)
	}
}

func TestBuildT2D(t *testing.T) {
	c := BuildT2D(60, 5, 3, 13)
	if n := c.Lake.Snapshot().Len(); n < 60 {
		t.Errorf("corpus has %d tables, want >= 60", n)
	}
	if len(c.Reclaimable) != 5 {
		t.Errorf("%d reclaimable tables, want 5", len(c.Reclaimable))
	}
	for _, name := range c.Reclaimable {
		base := c.Lake.Snapshot().Get(name)
		p1 := c.Lake.Snapshot().Get(name + "_part1")
		p2 := c.Lake.Snapshot().Get(name + "_part2")
		if base == nil || p1 == nil || p2 == nil {
			t.Fatalf("reclaimable %s missing parts", name)
		}
		// The parts jointly cover the base's columns.
		if p1.NumCols()+p2.NumCols() != base.NumCols()+1 {
			t.Errorf("parts of %s do not partition its schema", name)
		}
	}
	if len(c.Duplicates) != 3 {
		t.Errorf("%d duplicate clusters, want 3", len(c.Duplicates))
	}
	for base, dups := range c.Duplicates {
		if !table.EqualRows(c.Lake.Snapshot().Get(base), c.Lake.Snapshot().Get(dups[0])) {
			t.Errorf("duplicate of %s is not identical", base)
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
