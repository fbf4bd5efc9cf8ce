package autopipeline

import (
	"fmt"
	"testing"

	"gent/internal/metrics"
	"gent/internal/table"
)

func target() *table.Table {
	s := table.New("T", "id", "name", "dept")
	s.Key = []int{0}
	s.AddRow(table.S("e1"), table.S("Ann"), table.S("Eng"))
	s.AddRow(table.S("e2"), table.S("Bob"), table.S("Sales"))
	s.AddRow(table.S("e3"), table.S("Cem"), table.S("Eng"))
	return s
}

func TestSynthesizeJoin(t *testing.T) {
	tgt := target()
	names := tgt.Project("id", "name")
	depts := tgt.Project("id", "dept")
	res := Synthesize(tgt, []*table.Table{names, depts}, DefaultOptions())
	rep := metrics.Evaluate(tgt, res.Table)
	if !rep.PerfectReclamation {
		t.Errorf("join pipeline not synthesized: %+v\n%s", rep, res.Table)
	}
}

func TestSynthesizeUnion(t *testing.T) {
	tgt := target()
	top := table.New("top", "id", "name", "dept")
	top.Rows = append(top.Rows, tgt.Rows[0].Clone())
	bottom := table.New("bottom", "id", "name", "dept")
	bottom.Rows = append(bottom.Rows, tgt.Rows[1].Clone(), tgt.Rows[2].Clone())
	res := Synthesize(tgt, []*table.Table{top, bottom}, DefaultOptions())
	rep := metrics.Evaluate(tgt, res.Table)
	if !rep.PerfectReclamation {
		t.Errorf("union pipeline not synthesized: %+v\n%s", rep, res.Table)
	}
}

func TestSynthesizeEmptyInputs(t *testing.T) {
	res := Synthesize(target(), nil, DefaultOptions())
	if len(res.Table.Rows) != 0 {
		t.Error("no inputs must synthesize nothing")
	}
}

func TestSynthesizeBudgetTimeout(t *testing.T) {
	tgt := target()
	inputs := make([]*table.Table, 0, 10)
	for i := 0; i < 10; i++ {
		in := table.New(fmt.Sprintf("in%d", i), "id", "name")
		in.AddRow(table.S("e1"), table.S("Ann"))
		in.AddRow(table.S(fmt.Sprintf("x%d", i)), table.S("Zed"))
		inputs = append(inputs, in)
	}
	opts := DefaultOptions()
	opts.NodeBudget = 5
	res := Synthesize(tgt, inputs, opts)
	if !res.TimedOut {
		t.Error("tiny node budget must report timeout")
	}
	if res.Table == nil {
		t.Error("timeout must still return the best-so-far table")
	}
}

func TestFinalizeSelectsTargetKeys(t *testing.T) {
	tgt := target()
	wide := table.New("w", "id", "name", "dept", "extra")
	wide.AddRow(table.S("e1"), table.S("Ann"), table.S("Eng"), table.S("x"))
	wide.AddRow(table.S("foreign"), table.S("Zed"), table.S("Ops"), table.S("y"))
	got := finalize(tgt, wide)
	if len(got.Rows) != 1 || !got.Rows[0][0].Equal(table.S("e1")) {
		t.Errorf("finalize wrong:\n%s", got)
	}
	if len(got.Cols) != 3 {
		t.Errorf("finalize must project to target schema: %v", got.Cols)
	}
}

func TestSynthesizeRecordsPipeline(t *testing.T) {
	tgt := target()
	names := tgt.Project("id", "name")
	names.Name = "names"
	depts := tgt.Project("id", "dept")
	depts.Name = "depts"
	res := Synthesize(tgt, []*table.Table{names, depts}, DefaultOptions())
	// The best pipeline joins the two vertical halves back together. ⟕
	// and ⟗ build the same table but are tried after ⋈, and only a
	// strictly better score replaces the best.
	if want := "(names ⋈ depts)"; res.Pipeline != want {
		t.Errorf("Pipeline = %q, want %q", res.Pipeline, want)
	}
	if res := Synthesize(tgt, nil, DefaultOptions()); res.Pipeline != "" {
		t.Errorf("Pipeline with no inputs = %q, want \"\"", res.Pipeline)
	}
}
