package index

import (
	"bytes"
	"reflect"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// TestIndexSetSemanticSaveLoad: the full set persists the semantic substrate
// beside the others under the same dictionary fingerprint, and a
// semantic-less re-save removes the stale file instead of leaving it to be
// paired with fresh substrates.
func TestIndexSetSemanticSaveLoad(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t1", "london", "paris", "berlin"))
	laketest.Add(l, mk("t2", "apple", "pear", "plum"))
	snap := l.Snapshot()
	set := BuildIndexSetFull(snap, 0, nil)
	if set.Semantic == nil || !set.Semantic.Covers(snap) {
		t.Fatal("BuildIndexSetFull did not build a covering semantic substrate")
	}

	dir := t.TempDir()
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Semantic == nil || !loaded.Semantic.Embeddable() {
		t.Fatal("semantic substrate did not round-trip")
	}
	q := table.New("q", "a")
	q.AddRow(table.S("de·london"))
	q.AddRow(table.S("de·paris"))
	q.AddRow(table.S("de·berlin"))
	if !reflect.DeepEqual(loaded.Semantic.SearchColumn(q, 0, 0.3, 4), set.Semantic.SearchColumn(q, 0, 0.3, 4)) {
		t.Fatal("loaded semantic substrate answers differently")
	}

	// Re-saving without the semantic substrate must clear the old file.
	set.Semantic = nil
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Semantic != nil {
		t.Fatal("stale semantic file survived a semantic-less save")
	}
}

// TestIndexSetSemanticCatchUp: CatchUp maintains the semantic substrate
// through the same add-only delta as the others, landing bit-identical to a
// fresh build; a semantic substrate missing a grown table makes the gap
// non-add-only.
func TestIndexSetSemanticCatchUp(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t1", "london", "paris"))
	laketest.Add(l, mk("t2", "apple", "pear"))
	set := BuildIndexSetFull(l.Snapshot(), 0, nil)

	laketest.Add(l, mk("t3", "oslo", "dublin"))
	snap := l.Snapshot()
	added, ok := set.CatchUp(snap)
	if !ok || added != 1 {
		t.Fatalf("CatchUp = %d, %v", added, ok)
	}
	if set.Semantic == nil || !set.Semantic.Covers(snap) {
		t.Fatal("caught-up semantic substrate does not cover the lake")
	}
	fp := snap.Dict().Fingerprint()
	if !bytes.Equal(appendCosine(nil, set.Semantic, fp), appendCosine(nil, BuildCosineLSH(snap, nil), fp)) {
		t.Fatal("caught-up semantic substrate diverges from a fresh build")
	}

	// Substrate disagreement (semantic already has a table the inverted index
	// calls missing) must not be reported add-only.
	l2 := lake.New()
	laketest.Add(l2, mk("t1", "a"))
	set2 := BuildIndexSet(l2.Snapshot())
	laketest.Add(l2, mk("t2", "b"))
	snap2 := l2.Snapshot()
	set2.Semantic = BuildCosineLSH(snap2, nil) // covers t2; inverted does not
	if _, _, ok := set2.Gap(snap2); ok {
		t.Fatal("substrate disagreement reported add-only")
	}
}
