package experiments

import (
	"context"
	"testing"
	"time"

	"gent/internal/benchmark"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/metrics"
	"gent/internal/table"
)

func methodInput() Input {
	src := table.New("S", "k", "a", "b")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("a1"), table.S("b1"))
	src.AddRow(table.S("k2"), table.S("a2"), table.S("b2"))

	left := src.Project("k", "a")
	left.Name = "left"
	left.Key = nil
	right := src.Project("k", "b")
	right.Name = "right"
	right.Key = nil

	l := lake.New()
	laketest.Add(l, left)
	laketest.Add(l, right)
	return Input{
		Src:        src,
		Lake:       l,
		Candidates: []*table.Table{left, right},
		IntSet:     []*table.Table{left, right},
	}
}

func TestRunEveryMethod(t *testing.T) {
	in := methodInput()
	opts := DefaultRunOptions()
	ctx := context.Background()
	methods := []Method{
		MethodGenT, MethodALITE, MethodALITEIntSet, MethodALITEPS,
		MethodALITEPSIntSet, MethodAutoPipeline, MethodAutoPipelineIntSet,
		MethodVerIntSet, MethodNaiveLLM,
	}
	for _, m := range methods {
		o := RunContext(ctx, m, in, opts)
		if o.Reclaimed == nil {
			t.Fatalf("%s returned no table", m)
		}
		if o.Runtime <= 0 {
			t.Errorf("%s recorded no runtime", m)
		}
		if o.Report.EIS < 0 || o.Report.EIS > 1 {
			t.Errorf("%s EIS out of range: %v", m, o.Report.EIS)
		}
	}
	// On this clean vertical partition, the strong methods reclaim exactly.
	for _, m := range []Method{MethodGenT, MethodALITEPS, MethodALITEPSIntSet} {
		if o := RunContext(ctx, m, in, opts); !o.Report.PerfectReclamation {
			t.Errorf("%s failed the trivial partition: %+v", m, o.Report)
		}
	}
	// The naive stand-in must not.
	if o := RunContext(ctx, MethodNaiveLLM, in, opts); o.Report.PerfectReclamation {
		t.Error("naive stand-in unexpectedly perfect")
	}
}

func TestRunUnknownMethod(t *testing.T) {
	in := methodInput()
	o := RunContext(context.Background(), Method("nonsense"), in, DefaultRunOptions())
	if len(o.Reclaimed.Rows) != 0 {
		t.Error("unknown method should return an empty table")
	}
}

func TestAggregateOutcomes(t *testing.T) {
	outs := []Outcome{
		{Report: metrics.Report{EIS: 1, Recall: 1, Precision: 1, PerfectReclamation: true}, Runtime: time.Millisecond},
		{Report: metrics.Report{EIS: 0.5, Recall: 0.5}, Runtime: 3 * time.Millisecond, TimedOut: true},
	}
	row := aggregateOutcomes(MethodGenT, outs)
	if row.Sources != 2 || row.Perfect != 1 || row.Timeouts != 1 {
		t.Errorf("aggregate wrong: %+v", row)
	}
	if row.Avg.EIS != 0.75 || row.AvgRuntime != 2*time.Millisecond {
		t.Errorf("averages wrong: %+v", row)
	}
}

func TestSharedCandidates(t *testing.T) {
	in := methodInput()
	cands := sessionCandidates(context.Background(), sessionFor(in.Lake), in.Src, DefaultRunOptions().Discovery)
	if len(cands) == 0 {
		t.Fatal("no shared candidates found")
	}
	for _, c := range cands {
		if c == nil || c.NumRows() == 0 {
			t.Error("empty candidate table")
		}
	}
}

func TestRunEffectivenessParallelMatchesSequential(t *testing.T) {
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base = 12
	o.MaxSourceRows = 30
	b, err := benchmark.BuildTPTR("par", o)
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{MethodGenT, MethodALITEPS}
	ctx := context.Background()
	seq := RunEffectivenessContext(ctx, "b", b, methods, DefaultRunOptions())
	popts := DefaultRunOptions()
	popts.Parallel = 4
	par := RunEffectivenessContext(ctx, "b", b, methods, popts)
	if len(seq.Rows) != len(par.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range seq.Rows {
		s, p := seq.Rows[i], par.Rows[i]
		if s.Avg.EIS != p.Avg.EIS || s.Avg.Recall != p.Avg.Recall || s.Perfect != p.Perfect {
			t.Errorf("%s: parallel results differ: %+v vs %+v", s.Method, s.Avg, p.Avg)
		}
	}
	if len(seq.Detail) != len(par.Detail) {
		t.Fatal("detail lengths differ")
	}
	for i := range seq.Detail {
		if seq.Detail[i].Source != par.Detail[i].Source || seq.Detail[i].Method != par.Detail[i].Method {
			t.Fatal("detail order not deterministic under parallelism")
		}
	}
}
