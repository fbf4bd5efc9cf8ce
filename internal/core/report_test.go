package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSON(t *testing.T) {
	src, l := buildScenario()
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteJSON(&b, src); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if parsed["source"] != "people" {
		t.Errorf("source = %v", parsed["source"])
	}
	metrics, ok := parsed["metrics"].(map[string]any)
	if !ok || metrics["perfect_reclamation"] != true {
		t.Errorf("metrics wrong: %v", parsed["metrics"])
	}
	if _, ok := parsed["tuples"]; !ok {
		t.Error("tuple counts missing when source provided")
	}
	origs, ok := parsed["originating_tables"].([]any)
	if !ok || len(origs) == 0 {
		t.Error("originating tables missing")
	}
	trav, ok := parsed["traversal"].(map[string]any)
	if !ok {
		t.Fatalf("traversal block missing: %v", out)
	}
	if trav["rounds"] != float64(res.Traversal.Rounds) ||
		trav["candidates_scored"] != float64(res.Traversal.CandidatesScored) ||
		trav["candidates_pruned"] != float64(res.Traversal.CandidatesPruned) {
		t.Errorf("traversal block %v != result stats %+v", trav, res.Traversal)
	}
}

func TestWriteJSONWithoutSource(t *testing.T) {
	src, l := buildScenario()
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "\"tuples\"") {
		t.Error("tuple counts present without a source")
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatal(err)
	}
}
