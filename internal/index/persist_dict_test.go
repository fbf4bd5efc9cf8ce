package index

import (
	"bytes"
	"encoding/binary"
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
	s := BuildIndexSet(l.Snapshot())
	if s.Dict == nil {
		t.Fatal("BuildIndexSet must carry the lake dictionary")
	}
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{invertedFileName, minhashFileName, dictFileName} {
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
// persisted set: loading must fail loudly with ErrDictRequired before any
// substrate is read (the postings would be meaningless), which is what
// routes cmd/gent -index-dir into its rebuild-with-warning path. A set
// holding only one of the two ID-keyed substrates fails the same way.
func TestLoadIndexSetDetectsMissingDict(t *testing.T) {
	l := buildLake()
	full := BuildIndexSet(l.Snapshot())
	for _, s := range []*IndexSet{
		full,
		{Inverted: full.Inverted, Dict: full.Dict},
		{LSH: full.LSH, Dict: full.Dict},
	} {
		dir := t.TempDir()
		if err := s.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, dictFileName)); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrDictRequired) {
			t.Fatalf("inverted %v, minhash %v: got %v, want ErrDictRequired",
				s.Inverted != nil, s.LSH != nil, err)
		}
	}
}

// TestAdoptDictDetectsLakeMismatch persists a set over one lake and adopts
// its dictionary into a lake holding values the dictionary has never seen —
// the dict/lake mismatch UseIndexes surfaces so sessions rebuild instead of
// silently missing those values.
func TestAdoptDictDetectsLakeMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSet(buildLake().Snapshot()).SaveDir(dir); err != nil {
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
	if err := BuildIndexSet(buildLake().Snapshot()).SaveDir(dir); err != nil {
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
	if _, err := loadMinHashLSH(&buf, nil); !errors.Is(err, ErrStaleFormat) {
		t.Fatalf("got %v, want ErrStaleFormat", err)
	}
}

// TestLegacyInvertedFile: a directory whose only inverted index is in a
// retired format — a pre-sharding inverted.gob or a v4 sharded set — fails
// the load with ErrStaleFormat (whatever the files hold: they are never
// decoded), and SaveDir removes the leftovers so a directory never holds two
// inverted representations.
func TestLegacyInvertedFile(t *testing.T) {
	l := buildLake()
	s := BuildIndexSet(l.Snapshot())
	for _, legacy := range [][]string{
		{legacyInvertedFileName},
		{v4MetaFileName, "inverted-shard-000.gob", "inverted-shard-001.gob"},
	} {
		dir := t.TempDir()
		if err := s.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, invertedFileName)); err != nil {
			t.Fatal(err)
		}
		for _, name := range legacy {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("an older inverted index"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrStaleFormat) {
			t.Fatalf("%v: got %v, want ErrStaleFormat", legacy, err)
		}
		if err := s.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, name := range legacy {
			if fileExists(filepath.Join(dir, name)) {
				t.Fatalf("SaveDir left %s beside %s", name, invertedFileName)
			}
		}
		if _, err := LoadIndexSetDir(dir); err != nil {
			t.Fatalf("%v: load after re-save: %v", legacy, err)
		}
	}
}

// TestLoadRejectsForgedShardCount: an inverted file whose counts are forged
// under a valid checksum — the probe fan-out width, the column count, the
// posting-ID count — must fail with ErrCorruptIndex before anything is sized
// by the count, never a makeslice panic or an attempt to allocate it; so
// must a file whose IDs run past the dictionary it is stamped with.
func TestLoadRejectsForgedShardCount(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), 3)
	valid := appendInverted(nil, s.Inverted, s.Dict.Fingerprint())
	if _, err := parseInverted(valid, s.Dict); err != nil {
		t.Fatalf("valid file: %v", err)
	}
	fanOutAt := len(invertedMagic) + 12
	for _, n := range []uint32{0, maxFanOut + 1, 1<<32 - 1} {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[fanOutAt:], n)
		if _, err := parseInverted(withChecksum(b), s.Dict); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("fan-out %d: got %v, want ErrCorruptIndex", n, err)
		}
	}
	// The column count is the first uvarint after the header; the ID count
	// follows the column table.
	_, w := binary.Uvarint(valid[invertedHeaderLen:])
	for _, n := range []uint64{1 << 40, 1 << 20, uint64(len(s.Inverted.base.refs)) + 1} {
		b := append([]byte(nil), valid[:invertedHeaderLen]...)
		b = binary.AppendUvarint(b, n)
		b = append(b, valid[invertedHeaderLen+w:]...)
		if _, err := parseInverted(withChecksum(b), s.Dict); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("column count %d: got %v, want ErrCorruptIndex", n, err)
		}
	}
	ids := s.Inverted.base.ids()
	w = uvarintLen(uint64(ids))
	idsAt := len(valid) - 4 - len(s.Inverted.base.slab) - 4*len(s.Inverted.base.off) - w
	if got, _ := binary.Uvarint(valid[idsAt:]); int(got) != ids {
		t.Fatalf("ID count located wrongly: read %d, want %d", got, ids)
	}
	for _, n := range []uint64{1 << 40, uint64(s.Dict.Len()) + 2, uint64(ids) + 1} {
		b := append([]byte(nil), valid[:idsAt]...)
		b = binary.AppendUvarint(b, n)
		b = append(b, valid[idsAt+w:]...)
		if _, err := parseInverted(withChecksum(b), s.Dict); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("ID count %d: got %v, want ErrCorruptIndex", n, err)
		}
	}

	// A consistent file stamped with a shorter dictionary's fingerprint: its
	// postings for the IDs past that dictionary would match a query
	// overlay's transient IDs.
	prefix, err := table.NewDictFromSnapshot(s.Dict.Snapshot()[:s.Dict.Len()-2])
	if err != nil {
		t.Fatal(err)
	}
	past := appendInverted(nil, s.Inverted, prefix.Fingerprint())
	if _, err := parseInverted(past, prefix); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("postings past the dictionary: got %v, want ErrCorruptIndex", err)
	}
}

// TestSaveDirRequiresDict: a set without its dictionary must refuse to
// persist rather than write unreadable postings.
func TestSaveDirRequiresDict(t *testing.T) {
	l := buildLake()
	s := &IndexSet{Inverted: BuildInverted(l.Snapshot())}
	if err := s.SaveDir(t.TempDir()); !errors.Is(err, ErrDictRequired) {
		t.Fatalf("got %v, want ErrDictRequired", err)
	}
}
