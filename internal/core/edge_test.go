package core

import (
	"context"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

func TestReclaimEmptySourceWithDeclaredKey(t *testing.T) {
	src := table.New("empty", "k", "v")
	src.Key = []int{0}
	l := lake.New()
	filler := table.New("f", "k", "v")
	filler.AddRow(table.S("x"), table.S("y"))
	laketest.Add(l, filler)
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Vacuously reclaimed: nothing to find, nothing found.
	if res.Report.EIS != 1 || len(res.Reclaimed.Rows) != 0 {
		t.Errorf("empty source: %+v", res.Report)
	}
}

func TestReclaimSourceWithAllNullColumn(t *testing.T) {
	src := table.New("nulls", "k", "v", "allnull")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("v1"), table.Null)
	src.AddRow(table.S("k2"), table.S("v2"), table.Null)
	l := lake.New()
	cand := src.Project("k", "v")
	cand.Name = "cand"
	cand.Key = nil
	laketest.Add(l, cand)
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Recall != 1 {
		t.Errorf("all-null column broke reclamation: %+v\n%s", res.Report, res.Reclaimed)
	}
}

func TestReclaimLakeWithContradictoryDuplicates(t *testing.T) {
	// Two lake tables claim different values for the same keys; the one
	// agreeing with the source must win and the output must not mix them.
	src := table.New("S", "k", "v")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("right1"))
	src.AddRow(table.S("k2"), table.S("right2"))
	l := lake.New()
	good := src.Clone()
	good.Name = "good"
	good.Key = nil
	laketest.Add(l, good)
	bad := table.New("bad", "k", "v")
	bad.AddRow(table.S("k1"), table.S("wrong1"))
	bad.AddRow(table.S("k2"), table.S("wrong2"))
	laketest.Add(l, bad)
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("contradictory duplicate won: %+v\n%s", res.Report, res.Reclaimed)
	}
}

func TestReclaimWideSource(t *testing.T) {
	// A 22-column source (the paper's scalability claim for wide sources).
	cols := make([]string, 22)
	cols[0] = "k"
	for i := 1; i < 22; i++ {
		cols[i] = table.S("c").Str + string(rune('a'+i))
	}
	src := table.New("wide", cols...)
	src.Key = []int{0}
	for r := 0; r < 30; r++ {
		row := make(table.Row, 22)
		row[0] = table.S(table.S("k").Str + string(rune('a'+r%26)) + string(rune('0'+r/26)))
		for i := 1; i < 22; i++ {
			row[i] = table.S(cols[i] + "-" + row[0].Str)
		}
		src.Rows = append(src.Rows, row)
	}
	l := lake.New()
	left := src.Project(cols[:12]...)
	left.Name = "left"
	left.Key = nil
	laketest.Add(l, left)
	right := src.Project(append([]string{"k"}, cols[12:]...)...)
	right.Name = "right"
	right.Key = nil
	laketest.Add(l, right)
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("wide source not reclaimed: %+v", res.Report)
	}
}
