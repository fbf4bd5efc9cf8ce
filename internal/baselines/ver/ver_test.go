package ver

import (
	"testing"

	"gent/internal/metrics"
	"gent/internal/table"
)

func source() *table.Table {
	s := table.New("S", "id", "name", "city")
	s.Key = []int{0}
	s.AddRow(table.S("p1"), table.S("Ann"), table.S("Boston"))
	s.AddRow(table.S("p2"), table.S("Bob"), table.S("Worcester"))
	return s
}

func TestDiscoverSingleTableViews(t *testing.T) {
	src := source()
	wide := table.New("wide", "id", "name", "city")
	wide.AddRow(table.S("p1"), table.S("Ann"), table.S("Boston"))
	wide.AddRow(table.S("p2"), table.S("Bob"), table.S("Worcester"))
	wide.AddRow(table.S("p3"), table.S("Eve"), table.S("Salem")) // extra tuple
	got := Discover(src, []*table.Table{wide}, DefaultOptions())
	r := metrics.Evaluate(src, got)
	rec, pre := r.Recall, r.Precision
	if rec == 0 {
		t.Errorf("Ver found no source values:\n%s", got)
	}
	// Ver keeps additional tuples, so precision must not be perfect here.
	if pre == 1 {
		t.Errorf("Ver output unexpectedly exact (extra tuples should remain):\n%s", got)
	}
}

func TestDiscoverJoinHopViews(t *testing.T) {
	src := source()
	ids := table.New("ids", "id", "ssn")
	ids.AddRow(table.S("p1"), table.S("s1"))
	ids.AddRow(table.S("p2"), table.S("s2"))
	names := table.New("names", "ssn", "name")
	names.AddRow(table.S("s1"), table.S("Ann"))
	names.AddRow(table.S("s2"), table.S("Bob"))
	got := Discover(src, []*table.Table{ids, names}, DefaultOptions())
	// The (id, name) query is answerable only through the ssn join.
	foundAnn := false
	ni := got.ColIndex("name")
	for _, r := range got.Rows {
		if r[ni].Equal(table.S("Ann")) {
			foundAnn = true
		}
	}
	if !foundAnn {
		t.Errorf("join-hop view not discovered:\n%s", got)
	}
}

func TestDiscoverKeylessSource(t *testing.T) {
	src := source()
	src.Key = nil
	got := Discover(src, []*table.Table{source()}, DefaultOptions())
	if len(got.Rows) != 0 {
		t.Error("keyless source must yield empty output")
	}
}

func TestDiscoverNoViews(t *testing.T) {
	src := source()
	junk := table.New("junk", "x")
	junk.AddRow(table.S("nothing"))
	got := Discover(src, []*table.Table{junk}, DefaultOptions())
	if len(got.Rows) != 0 {
		t.Errorf("no qualifying views, got rows:\n%s", got)
	}
}
