package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

func explainScenario() (*table.Table, *lake.Lake) {
	src := table.New("S", "k", "a", "b")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("a1"), table.S("b1")) // fully reclaimable
	src.AddRow(table.S("k2"), table.S("a2"), table.S("b2")) // b2 missing from lake
	src.AddRow(table.S("k3"), table.S("a3"), table.S("b3")) // lake contradicts a3
	src.AddRow(table.S("k4"), table.S("a4"), table.S("b4")) // absent from lake

	l := lake.New()
	t1 := table.New("facts_a", "k", "a")
	t1.AddRow(table.S("k1"), table.S("a1"))
	t1.AddRow(table.S("k2"), table.S("a2"))
	t1.AddRow(table.S("k3"), table.S("WRONG"))
	laketest.Add(l, t1)
	t2 := table.New("facts_b", "k", "b")
	t2.AddRow(table.S("k1"), table.S("b1"))
	t2.AddRow(table.S("k3"), table.S("b3"))
	laketest.Add(l, t2)
	return src, l
}

func TestExplainStatuses(t *testing.T) {
	src, l := explainScenario()
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explain(src)
	byKey := make(map[string]TupleExplanation)
	for _, te := range exp.Tuples {
		byKey[te.Key] = te
	}
	if byKey["k1"].Status != TupleExact {
		t.Errorf("k1 = %v, want exact", byKey["k1"].Status)
	}
	if byKey["k2"].Status != TuplePartial {
		t.Errorf("k2 = %v, want partial", byKey["k2"].Status)
	}
	if got := byKey["k2"].MissingCols; len(got) != 1 || got[0] != "b" {
		t.Errorf("k2 missing cols = %v, want [b]", got)
	}
	// k3: the lake's WRONG value for a may be filtered (then a is missing)
	// or surface (then a conflicts); either way b3 must be reclaimed and
	// the tuple must not be exact.
	if byKey["k3"].Status == TupleExact || byKey["k3"].Status == TupleMissing {
		t.Errorf("k3 = %v, want partial or conflicting", byKey["k3"].Status)
	}
	if byKey["k4"].Status != TupleMissing {
		t.Errorf("k4 = %v, want missing", byKey["k4"].Status)
	}
	if len(byKey["k1"].Origins) == 0 {
		t.Error("k1 should list originating tables")
	}
	if len(byKey["k4"].Origins) != 0 {
		t.Error("k4 has no originating tables")
	}
	if exp.Counts[TupleExact] < 1 || exp.Counts[TupleMissing] != 1 {
		t.Errorf("counts wrong: %v", exp.Counts)
	}
}

func TestExplainRendering(t *testing.T) {
	src, l := explainScenario()
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explain(src)
	out := exp.String()
	if !strings.Contains(out, "missing") || !strings.Contains(out, "k4") {
		t.Errorf("rendering missing details:\n%s", out)
	}
	if !strings.Contains(exp.Summary(), "exact=") {
		t.Error("summary malformed")
	}
	// Exact tuples are omitted from the detailed listing.
	if strings.Contains(out, "exact       k1") {
		t.Error("exact tuples should not be listed in detail")
	}
}

func TestExplainPerfectReclamation(t *testing.T) {
	src := table.New("S", "k", "v")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("v1"))
	l := lake.New()
	dup := src.Clone()
	dup.Name = "copy"
	dup.Key = nil
	laketest.Add(l, dup)
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explain(src)
	if exp.Counts[TupleExact] != 1 || len(exp.Tuples) != 1 {
		t.Errorf("perfect reclamation explain wrong: %v", exp.Counts)
	}
}

// TestExplainKeylessSource: a Source that declares no key is explained and
// reported under the key the run mined for it — not an empty key, under
// which every tuple would read as missing and the JSON would drop its tuple
// counts.
func TestExplainKeylessSource(t *testing.T) {
	src, l := explainScenario()
	keyless := src.Clone()
	keyless.Key = nil
	res, err := ReclaimContext(context.Background(), l, keyless, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Explain(keyless).Summary(), res.Explain(src).Summary(); got != want {
		t.Errorf("keyless Explain: %s, want the mined key's %s", got, want)
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js, keyless); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		KeyColumns []string         `json:"key_columns"`
		Tuples     *jsonTupleCounts `json:"tuples"`
	}
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.KeyColumns, []string{"k"}) || rep.Tuples == nil || rep.Tuples.Missing != 1 {
		t.Errorf("keyless JSON: key_columns %v, tuples %+v; want [k] and one missing tuple", rep.KeyColumns, rep.Tuples)
	}
	if !reflect.DeepEqual(res.Key, src.Key) || keyless.Key != nil {
		t.Errorf("Result.Key = %v (caller's key %v), want the mined %v", res.Key, keyless.Key, src.Key)
	}
}
