package experiments

import (
	"context"
	"strings"
	"testing"

	"gent/internal/benchmark"
)

// tinySet builds the smallest useful benchmark set for test time.
func tinySet(t *testing.T) *BenchmarkSet {
	t.Helper()
	o := DefaultSetOptions()
	o.SmallBase = 16
	o.MedBase = 30
	o.LargeBase = 40
	o.Distractors = 30
	o.T2DTables = 30
	o.WDCTables = 60
	o.MaxSourceRows = 60
	set, err := BuildSet(o)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestTable1Stats(t *testing.T) {
	set := tinySet(t)
	rows := Table1(set)
	if len(rows) != 6 {
		t.Fatalf("Table I needs 6 benchmarks, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Stats.Tables == 0 {
			t.Errorf("%s is empty", r.Benchmark)
		}
	}
	if out := RenderTable1(rows); !strings.Contains(out, "TP-TR Small") {
		t.Error("render missing benchmark name")
	}
}

func TestTable3HeadlineShape(t *testing.T) {
	// The paper's headline: Gen-T outperforms every baseline on TP-TR Small
	// in precision and EIS, and reclaims the most sources perfectly.
	set := tinySet(t)
	res := Table3Context(context.Background(), set, DefaultRunOptions())
	byMethod := make(map[Method]MethodScores)
	for _, row := range res.Rows {
		byMethod[row.Method] = row
	}
	gent := byMethod[MethodGenT]
	if gent.Sources == 0 {
		t.Fatal("Gen-T ran on no sources")
	}
	for m, row := range byMethod {
		if m == MethodGenT {
			continue
		}
		if row.Avg.Precision > gent.Avg.Precision+1e-9 {
			t.Errorf("%s precision %.3f beats Gen-T %.3f", m, row.Avg.Precision, gent.Avg.Precision)
		}
		if row.Perfect > gent.Perfect {
			t.Errorf("%s perfectly reclaims %d > Gen-T %d", m, row.Perfect, gent.Perfect)
		}
	}
	if gent.Avg.Recall < 0.5 {
		t.Errorf("Gen-T recall %.3f unexpectedly low", gent.Avg.Recall)
	}
	t.Logf("\n%s", RenderEffectiveness(res))
}

func TestFigure7Shape(t *testing.T) {
	o := DefaultSetOptions()
	o.MedBase = 24
	o.MaxSourceRows = 40
	points, err := Figure7(context.Background(), o, []int{10, 90}, DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(points))
	}
	var by = map[string]map[int]Fig7Point{}
	for _, p := range points {
		if by[p.Sweep] == nil {
			by[p.Sweep] = map[int]Fig7Point{}
		}
		by[p.Sweep][p.Percent] = p
	}
	// Paper's shape: more nullified values → precision declines (or at
	// least does not improve).
	if by["nullified"][90].Precision > by["nullified"][10].Precision+0.05 {
		t.Errorf("precision should not rise with more nulls: %v vs %v",
			by["nullified"][90].Precision, by["nullified"][10].Precision)
	}
	t.Logf("\n%s", RenderFigure7(points))
}

func TestTable4AndT2DSelf(t *testing.T) {
	corpus := benchmark.BuildT2D(40, 4, 2, 23)
	res := Table4Context(context.Background(), corpus, DefaultRunOptions())
	if len(res.Rows) == 0 {
		t.Fatal("Table IV produced no rows")
	}
	byMethod := make(map[Method]MethodScores)
	for _, row := range res.Rows {
		byMethod[row.Method] = row
	}
	if g, a := byMethod[MethodGenT], byMethod[MethodALITE]; g.Avg.Precision < a.Avg.Precision {
		t.Errorf("Gen-T precision %.3f below ALITE %.3f on T2D", g.Avg.Precision, a.Avg.Precision)
	}
	t.Logf("\n%s", RenderEffectiveness(res))

	self := T2DSelfReclamation(context.Background(), corpus, DefaultRunOptions())
	if self.SourcesTried == 0 {
		t.Fatal("no sources tried")
	}
	if self.PerfectReclamations < 4 {
		t.Errorf("expected at least the 4 derivable tables reclaimed, got %d", self.PerfectReclamations)
	}
	t.Logf("\n%s", RenderT2DSelf(self))
}

func TestAblations(t *testing.T) {
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base = 20
	o.MaxSourceRows = 40
	b, err := benchmark.BuildTPTR("ablation", o)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultRunOptions()
	ctx := context.Background()

	enc := AblationMatrixEncoding(ctx, b, opts)
	if enc.With.EIS+1e-9 < enc.Without.EIS {
		t.Errorf("three-valued EIS %.3f below two-valued %.3f", enc.With.EIS, enc.Without.EIS)
	}
	trav := AblationTraversal(ctx, b, opts)
	if trav.With.Precision+1e-9 < trav.Without.Precision {
		t.Errorf("traversal pruning lowered precision: %.3f vs %.3f",
			trav.With.Precision, trav.Without.Precision)
	}
	div := AblationDiversify(ctx, b, opts)
	guard := AblationGuardedOps(ctx, b, opts)
	if guard.With.EIS+1e-9 < guard.Without.EIS {
		t.Errorf("guarded integration EIS %.3f below plain FD %.3f",
			guard.With.EIS, guard.Without.EIS)
	}
	for _, a := range []AblationRow{enc, trav, div, guard} {
		t.Logf("\n%s", RenderAblation(a))
	}
}
