package alite

import (
	"testing"

	"gent/internal/metrics"
	"gent/internal/table"
)

func source() *table.Table {
	s := table.New("S", "id", "name", "age")
	s.Key = []int{0}
	s.AddRow(table.S("a"), table.S("Ann"), table.N(30))
	s.AddRow(table.S("b"), table.S("Bob"), table.N(40))
	return s
}

func parts() []*table.Table {
	left := table.New("l", "id", "name")
	left.AddRow(table.S("a"), table.S("Ann"))
	left.AddRow(table.S("b"), table.S("Bob"))
	right := table.New("r", "id", "age")
	right.AddRow(table.S("a"), table.N(30))
	right.AddRow(table.S("b"), table.N(40))
	right.AddRow(table.S("zzz"), table.N(99)) // foreign row
	return []*table.Table{left, right}
}

func TestIntegrateFD(t *testing.T) {
	src := source()
	res := Integrate(src, parts(), Options{})
	if res.TimedOut {
		t.Fatal("unexpected timeout")
	}
	rec := metrics.Evaluate(src, res.Table).Recall
	if rec != 1 {
		t.Errorf("FD should recover all source tuples, recall = %v\n%s", rec, res.Table)
	}
	// The foreign row survives: ALITE is not target-driven.
	found := false
	for _, r := range res.Table.Rows {
		if r[res.Table.ColIndex("id")].Equal(table.S("zzz")) {
			found = true
		}
	}
	if !found {
		t.Error("ALITE should keep non-source tuples")
	}
}

func TestIntegratePSFiltersForeign(t *testing.T) {
	src := source()
	res := IntegratePS(src, parts(), Options{})
	for _, r := range res.Table.Rows {
		if r[res.Table.ColIndex("id")].Equal(table.S("zzz")) {
			t.Error("ALITE-PS must select away foreign keys")
		}
	}
	r := metrics.Evaluate(src, res.Table)
	rec, pre := r.Recall, r.Precision
	if rec != 1 || pre != 1 {
		t.Errorf("PS variant on clean partitions: rec=%v pre=%v", rec, pre)
	}
}

func TestIntegrateEmpty(t *testing.T) {
	src := source()
	if res := Integrate(src, nil, Options{}); len(res.Table.Rows) != 0 {
		t.Error("empty candidate set must integrate to empty")
	}
	if res := IntegratePS(src, nil, Options{}); len(res.Table.Rows) != 0 {
		t.Error("empty PS candidate set must integrate to empty")
	}
}

func TestIntegrateTimeout(t *testing.T) {
	src := source()
	// Many mutually complementing tuples blow up the closure.
	big := make([]*table.Table, 0, 8)
	for i := 0; i < 8; i++ {
		t2 := table.New("t", "id", "x")
		for j := 0; j < 10; j++ {
			t2.AddRow(table.S("a"), table.N(float64(i*100+j)))
		}
		big = append(big, t2)
	}
	res := Integrate(src, big, Options{MaxRows: 20})
	if !res.TimedOut {
		t.Skip("closure stayed under budget; bound not exercised")
	}
}
