package core

import (
	"context"
	"fmt"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/matrix"
	"gent/internal/table"
)

// buildScenario creates a source table and a lake containing a vertical
// partition of it (clean), an erroneous variant, and noise.
func buildScenario() (*table.Table, *lake.Lake) {
	src := table.New("people", "pid", "name", "city", "salary")
	src.Key = []int{0}
	for i := 0; i < 12; i++ {
		src.AddRow(
			table.S(fmt.Sprintf("P%03d", i)),
			table.S(fmt.Sprintf("name-%d", i)),
			table.S(fmt.Sprintf("city-%d", i%4)),
			table.N(float64(1000+i*10)),
		)
	}

	l := lake.New()
	left := src.Project("pid", "name", "city")
	left.Name = "hr_names"
	left.Key = nil
	laketest.Add(l, left)

	right := src.Project("pid", "salary")
	right.Name = "hr_salaries"
	right.Key = nil
	laketest.Add(l, right)

	// Erroneous variant: same keys, wrong salaries.
	bad := src.Project("pid", "salary")
	bad.Name = "hr_salaries_stale"
	bad.Key = nil
	for _, r := range bad.Rows {
		r[1] = table.N(r[1].Num + 7777)
	}
	laketest.Add(l, bad)

	noise := table.New("noise", "a", "b")
	noise.AddRow(table.S("x"), table.S("y"))
	laketest.Add(l, noise)
	return src, l
}

func TestReclaimEndToEnd(t *testing.T) {
	src, l := buildScenario()
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("not perfectly reclaimed: %+v\n%s", res.Report, res.Reclaimed)
	}
	// The erroneous variant must not be an originating table.
	for _, c := range res.Originating {
		for _, s := range c.Sources {
			if s == "hr_salaries_stale" {
				t.Error("erroneous variant selected as originating table")
			}
		}
	}
	if res.CandidateCount < len(res.Originating) {
		t.Error("candidate count smaller than originating set")
	}
	if res.Timing.Total() <= 0 {
		t.Error("timing not recorded")
	}
}

func TestReclaimMinesKey(t *testing.T) {
	src, l := buildScenario()
	src = src.Clone()
	src.Key = nil // force mining
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("key mining path failed: %+v", res.Report)
	}
}

func TestReclaimNoKey(t *testing.T) {
	src := table.New("dups", "a")
	src.AddRow(table.S("x"))
	src.AddRow(table.S("x"))
	if _, err := ReclaimContext(context.Background(), lake.New(), src, DefaultConfig()); err == nil {
		t.Error("expected ErrNoKey for unkeyable source")
	}
}

func TestReclaimInvalidSource(t *testing.T) {
	bad := table.New("bad", "a", "a")
	if _, err := ReclaimContext(context.Background(), lake.New(), bad, DefaultConfig()); err == nil {
		t.Error("expected validation error")
	}
}

func TestReclaimEmptyLake(t *testing.T) {
	src, _ := buildScenario()
	res, err := ReclaimContext(context.Background(), lake.New(), src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Recall != 0 || len(res.Originating) != 0 {
		t.Errorf("empty lake should reclaim nothing: %+v", res.Report)
	}
}

func TestSkipTraversalAblation(t *testing.T) {
	src, l := buildScenario()
	cfg := DefaultConfig()
	cfg.SkipTraversal = true
	res, err := ReclaimContext(context.Background(), l, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withTraversal, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Without pruning, the erroneous variant is integrated too; precision
	// and EIS must not beat the pruned pipeline.
	if res.Report.EIS > withTraversal.Report.EIS {
		t.Errorf("no-pruning EIS %v beat Gen-T %v",
			res.Report.EIS, withTraversal.Report.EIS)
	}
}

func TestTwoValuedAblationDoesNotBeatThreeValued(t *testing.T) {
	src, l := buildScenario()
	cfg := DefaultConfig()
	cfg.Encoding = matrix.TwoValued
	two, err := ReclaimContext(context.Background(), l, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	three, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if two.Report.EIS > three.Report.EIS {
		t.Errorf("two-valued EIS %v beat three-valued %v",
			two.Report.EIS, three.Report.EIS)
	}
}

func TestTraverseWorkersEquivalent(t *testing.T) {
	// The traversal engine's worker count is a throughput knob, not a
	// semantic one: whatever the pool size, the pipeline must select the
	// same originating tables in the same order and reclaim the same table.
	src, l := buildScenario()
	var want *Result
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.TraverseWorkers = workers
		res, err := ReclaimContext(context.Background(), l, src, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
			continue
		}
		if len(res.Originating) != len(want.Originating) {
			t.Fatalf("workers=%d picked %d tables, want %d", workers, len(res.Originating), len(want.Originating))
		}
		for i := range res.Originating {
			if res.Originating[i].Table.Name != want.Originating[i].Table.Name {
				t.Fatalf("workers=%d pick %d = %s, want %s",
					workers, i, res.Originating[i].Table.Name, want.Originating[i].Table.Name)
			}
		}
		if !table.EqualRows(res.Reclaimed, want.Reclaimed) {
			t.Errorf("workers=%d reclaimed a different table", workers)
		}
		if res.Report.EIS != want.Report.EIS {
			t.Errorf("workers=%d EIS %v != %v", workers, res.Report.EIS, want.Report.EIS)
		}
	}
}
