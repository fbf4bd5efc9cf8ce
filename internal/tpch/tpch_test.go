package tpch

import (
	"testing"

	"gent/internal/table"
)

func TestGenerateShape(t *testing.T) {
	l := Generate(Small)
	if n := l.Snapshot().Len(); n != 8 {
		t.Fatalf("generated %d tables, want 8", n)
	}
	for _, name := range TableNames {
		tb := l.Snapshot().Get(name)
		if tb == nil {
			t.Fatalf("missing table %s", name)
		}
		if err := tb.Validate(); err != nil {
			t.Fatal(err)
		}
		if tb.NumRows() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	if l.Snapshot().Get("region").NumRows() != 5 || l.Snapshot().Get("nation").NumRows() != 25 {
		t.Error("region/nation cardinalities wrong")
	}
	if l.Snapshot().Get("customer").NumRows() != Small.Base {
		t.Errorf("customer rows = %d, want %d", l.Snapshot().Get("customer").NumRows(), Small.Base)
	}
	if l.Snapshot().Get("orders").NumRows() != 2*Small.Base {
		t.Error("orders should be 2x customers")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(Small), Generate(Small)
	for _, name := range TableNames {
		if !table.EqualRows(a.Snapshot().Get(name), b.Snapshot().Get(name)) {
			t.Fatalf("%s not deterministic", name)
		}
	}
	c := Generate(Scale{Base: Small.Base, Seed: 99})
	if table.EqualRows(a.Snapshot().Get("customer"), c.Snapshot().Get("customer")) {
		t.Error("different seeds produced identical data")
	}
}

func TestPrimaryKeysAreKeys(t *testing.T) {
	l := Generate(Small)
	for _, name := range TableNames {
		pk := PrimaryKey(name)
		if pk == "" {
			continue // composite-key tables
		}
		tb := l.Snapshot().Get(name)
		i := tb.ColIndex(pk)
		if i < 0 {
			t.Fatalf("%s lacks declared key column %s", name, pk)
		}
		seen := map[string]bool{}
		for _, r := range tb.Rows {
			k := r[i].Key()
			if seen[k] {
				t.Fatalf("%s.%s is not unique", name, pk)
			}
			seen[k] = true
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	l := Generate(Small)
	custKeys := l.Snapshot().Get("customer").ColumnSet(l.Snapshot().Get("customer").ColIndex("custkey"))
	orders := l.Snapshot().Get("orders")
	ci := orders.ColIndex("custkey")
	for _, r := range orders.Rows {
		if !custKeys[r[ci].Key()] {
			t.Fatal("orders.custkey does not resolve to a customer")
		}
	}
	natKeys := l.Snapshot().Get("nation").ColumnSet(l.Snapshot().Get("nation").ColIndex("nationkey"))
	supp := l.Snapshot().Get("supplier")
	ni := supp.ColIndex("nationkey")
	for _, r := range supp.Rows {
		if !natKeys[r[ni].Key()] {
			t.Fatal("supplier.nationkey does not resolve to a nation")
		}
	}
}

func TestJoinsWorkByColumnName(t *testing.T) {
	l := Generate(Small)
	j := table.InnerJoin(l.Snapshot().Get("orders"), l.Snapshot().Get("customer"))
	if j.NumRows() != l.Snapshot().Get("orders").NumRows() {
		t.Errorf("orders⋈customer = %d rows, want %d", j.NumRows(), l.Snapshot().Get("orders").NumRows())
	}
}
