package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// TestIndexSetDictRoundTrip persists a full set and reloads it:
// the dictionary must travel with the substrates, and searches through the
// reloaded set must match the live one exactly.
func TestIndexSetDictRoundTrip(t *testing.T) {
	l := buildLake()
	s := BuildIndexSet(l)
	if s.Dict == nil {
		t.Fatal("BuildIndexSet must carry the lake dictionary")
	}
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{shardMetaFileName, minhashFileName, dictFileName} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing persisted file %s: %v", f, err)
		}
	}
	got, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dict == nil || got.Inverted == nil || got.LSH == nil {
		t.Fatal("round trip lost a member")
	}
	if !got.Dict.PrefixOf(l.Dict()) || !l.Dict().PrefixOf(got.Dict) {
		t.Error("reloaded dictionary diverged from the live one")
	}
	a := searchValues(s.Inverted, table.S("Smith"), table.S("Boston"))
	b := searchValues(got.Inverted, table.S("Smith"), table.S("Boston"))
	if len(a) != len(b) {
		t.Fatalf("search diverged after round trip: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("overlap %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestLoadIndexSetDetectsMissingDict removes the dictionary file from a
// persisted set: loading must fail loudly (the postings would be
// meaningless), which is what routes cmd/gent -index-dir into its
// rebuild-with-warning path.
func TestLoadIndexSetDetectsMissingDict(t *testing.T) {
	l := buildLake()
	dir := t.TempDir()
	if err := BuildIndexSet(l).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, dictFileName)); err != nil {
		t.Fatal(err)
	}
	_, err := LoadIndexSetDir(dir)
	if !errors.Is(err, ErrDictRequired) {
		t.Fatalf("got %v, want ErrDictRequired", err)
	}
}

// TestAdoptDictDetectsLakeMismatch persists a set over one lake and adopts
// its dictionary into a lake holding values the dictionary has never seen —
// the dict/lake mismatch UseIndexes surfaces so sessions rebuild instead of
// silently missing those values.
func TestAdoptDictDetectsLakeMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSet(buildLake()).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	s, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Same lake content: adoption succeeds.
	same := buildLake()
	if err := same.AdoptDict(s.Dict); err != nil {
		t.Fatalf("adopting into an identical lake failed: %v", err)
	}

	// A lake with an extra value the dictionary lacks: mismatch.
	grown := buildLake()
	extra := table.New("extra", "name")
	extra.AddRow(table.S("Zephyr"))
	laketest.Add(grown, extra)
	d2, err := LoadDictFile(filepath.Join(dir, dictFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.AdoptDict(d2); !errors.Is(err, lake.ErrDictMismatch) {
		t.Fatalf("got %v, want lake.ErrDictMismatch", err)
	}
}

// TestLoadDetectsDictFingerprintMismatch pairs a persisted set's substrates
// with a different dictionary (the torn-save shape): loading must fail
// loudly instead of resolving IDs against the wrong values.
func TestLoadDetectsDictFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSet(buildLake()).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	other := table.NewDict()
	other.InternValue(table.S("imposter"))
	err := saveFile(filepath.Join(dir, dictFileName), func(w io.Writer) error {
		return saveDictEntries(w, other.Snapshot())
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrDictFingerprint) {
		t.Fatalf("got %v, want ErrDictFingerprint", err)
	}
}

// TestLoadRejectsV1Format: files from before the canonical key format change
// must be rejected, not served — their sketches silently mismatch current
// Value.Key output for the reclassified value spellings.
func TestLoadRejectsV1Format(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(minhashDisk{Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMinHashLSH(&buf, nil); !errors.Is(err, ErrStaleFormat) {
		t.Fatalf("got %v, want ErrStaleFormat", err)
	}
}

// TestLegacyInvertedFile: a directory whose only inverted index is a
// pre-sharding inverted.gob fails the load with ErrStaleFormat (whatever the
// file holds — it is never decoded), and SaveDir removes a leftover one so a
// directory never holds two inverted representations.
func TestLegacyInvertedFile(t *testing.T) {
	l := buildLake()
	dir := t.TempDir()
	s := BuildIndexSet(l.Snapshot())
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, legacyInvertedFileName)
	if err := os.Rename(filepath.Join(dir, shardMetaFileName), legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrStaleFormat) {
		t.Fatalf("legacy-only directory: got %v, want ErrStaleFormat", err)
	}
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if fileExists(legacy) {
		t.Fatal("SaveDir left the legacy inverted.gob beside the sharded files")
	}
	if _, err := LoadIndexSetDir(dir); err != nil {
		t.Fatalf("load after re-save: %v", err)
	}
}

// TestLoadRejectsForgedShardCount: a shard meta declaring more shards than
// the directory holds files for — forged or corrupt — must fail with a typed
// error before anything is sized by the count, never a makeslice panic or an
// attempt to allocate it.
func TestLoadRejectsForgedShardCount(t *testing.T) {
	l := buildLake()
	dir := t.TempDir()
	s := BuildIndexSetSharded(l.Snapshot(), 3)
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1 << 40, 4, 0, -1} {
		meta := shardMetaDisk{
			Version:         invertedFormatSharded,
			NShards:         n,
			Refs:            s.Inverted.base.refs,
			ColSizes:        s.Inverted.colSizes,
			DictFingerprint: s.Dict.Fingerprint(),
		}
		err := saveFile(filepath.Join(dir, shardMetaFileName), func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(meta)
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrCorruptPosting) {
			t.Fatalf("NShards=%d: got %v, want ErrCorruptPosting", n, err)
		}
	}
}

// TestSaveDirRequiresDict: a set without its dictionary must refuse to
// persist rather than write unreadable postings.
func TestSaveDirRequiresDict(t *testing.T) {
	l := buildLake()
	s := &IndexSet{Inverted: BuildInverted(l)}
	if err := s.SaveDir(t.TempDir()); !errors.Is(err, ErrDictRequired) {
		t.Fatalf("got %v, want ErrDictRequired", err)
	}
}
