package index

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gent/internal/embed"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

func TestCosinePersistRoundTrip(t *testing.T) {
	l := lake.New()
	laketest.Add(l, cityTable("cities", "", 20))
	laketest.Add(l, mkNumbers("numbers", 30))
	snap := l.Snapshot()
	ix := BuildCosineLSH(snap, nil)

	path := filepath.Join(t.TempDir(), "semantic.gob")
	saveStamped(t, path, ix.save, snap.Dict())
	got, err := loadCosineLSHFile(path, snap.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Embeddable() {
		t.Fatal("ngram-kind file loaded without a reconstructed embedder")
	}
	if got.EmbedderFingerprint() != ix.EmbedderFingerprint() {
		t.Fatal("embedder fingerprint did not round-trip")
	}
	if !reflect.DeepEqual(got.flattened().base, ix.flattened().base) {
		t.Fatal("vectors did not round-trip bit-identically")
	}
	query := cityTable("q", "de·", 20)
	if !reflect.DeepEqual(got.SearchColumn(query, 0, 0.3, 8), ix.SearchColumn(query, 0, 0.3, 8)) {
		t.Fatal("loaded index answers differently from the saved one")
	}

	// A different dictionary must be rejected, not silently paired.
	other := lake.New()
	laketest.Add(other, cityTable("unrelated", "q·", 5))
	if _, err := loadCosineLSHFile(path, other.Snapshot().Dict()); !errors.Is(err, ErrDictFingerprint) {
		t.Fatalf("wrong dictionary: err = %v, want ErrDictFingerprint", err)
	}
}

func TestCosineLoadRejectsCorruption(t *testing.T) {
	l := lake.New()
	laketest.Add(l, cityTable("t", "", 8))
	snap := l.Snapshot()
	ix := BuildCosineLSH(snap, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "semantic.gob")
	saveStamped(t, path, ix.save, snap.Dict())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation mid-payload must fail loudly.
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCosineLSHFile(path, snap.Dict()); err == nil {
		t.Fatal("truncated file loaded")
	}
}

// TestExternalEmbedderPersistence: an index built under a vector-file
// embedder loads without one (vectors are still servable data, but queries
// and deltas need the embedder back), and AttachEmbedder enforces the
// fingerprint.
func TestExternalEmbedderPersistence(t *testing.T) {
	vecPath := filepath.Join(t.TempDir(), "vectors.txt")
	content := "4 3\nberlin 1 0 0\nhamburg 0.9 0.1 0\napple 0 1 0\nbanana 0 0.9 0.2\n"
	if err := os.WriteFile(vecPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	emb, err := embed.LoadVectorFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Dim() != 3 {
		t.Fatalf("dim = %d, want 3", emb.Dim())
	}

	l := lake.New()
	cities := table.New("cities", "name")
	cities.AddRow(table.S("berlin"))
	cities.AddRow(table.S("hamburg"))
	fruit := table.New("fruit", "name")
	fruit.AddRow(table.S("apple"))
	fruit.AddRow(table.S("banana"))
	laketest.Add(l, cities, fruit)
	snap := l.Snapshot()
	ix := BuildCosineLSH(snap, emb)

	q := table.New("q", "name")
	q.AddRow(table.S("berlin"))
	ms := ix.SearchColumn(q, 0, 0.5, 2)
	if len(ms) == 0 || ms[0].Ref.Table != "cities" {
		t.Fatalf("vector-file search missed: %v", ms)
	}

	path := filepath.Join(t.TempDir(), "semantic.gob")
	saveStamped(t, path, ix.save, snap.Dict())
	got, err := loadCosineLSHFile(path, snap.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got.Embeddable() {
		t.Fatal("external-kind file claims an embedder it cannot reconstruct")
	}
	if got.SearchColumn(q, 0, 0.5, 2) != nil {
		t.Fatal("embedder-less index answered a query")
	}
	if got.AttachEmbedder(embed.Default()) {
		t.Fatal("AttachEmbedder accepted a mismatched embedder")
	}
	if !got.AttachEmbedder(emb) {
		t.Fatal("AttachEmbedder refused the original embedder")
	}
	if !reflect.DeepEqual(got.SearchColumn(q, 0, 0.5, 2), ms) {
		t.Fatal("re-attached index answers differently")
	}

	// Fingerprint is content-derived: a reload of the same file matches, a
	// different vocabulary does not.
	emb2, err := embed.LoadVectorFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	if emb2.Fingerprint() != emb.Fingerprint() {
		t.Fatal("same file, different fingerprints")
	}
}
