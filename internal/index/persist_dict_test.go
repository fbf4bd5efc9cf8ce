package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// TestIndexSetDictRoundTrip persists a set and reloads it: exactly
// dict.bin and inverted.bin are written (the LSH never is), the dictionary
// travels with the inverted index, and searches through the reloaded set
// must match the live one exactly.
func TestIndexSetDictRoundTrip(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	if s.Dict == nil {
		t.Fatal("BuildIndexSetSharded must carry the lake dictionary")
	}
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if want := []string{dictFileName, invertedFileName}; !slices.Equal(files, want) {
		t.Fatalf("SaveDir wrote %v, want %v", files, want)
	}
	got, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dict == nil || got.Inverted == nil || got.LSH != nil {
		t.Fatal("round trip lost a member or loaded an LSH")
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
// routes cmd/gent -index-dir into its rebuild-with-warning path.
func TestLoadIndexSetDetectsMissingDict(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSetSharded(buildLake().Snapshot(), DefaultShards).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, dictFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrDictRequired) {
		t.Fatalf("got %v, want ErrDictRequired", err)
	}
}

// TestAdoptDictDetectsLakeMismatch persists a set over one lake and adopts
// its dictionary into a lake holding values the dictionary has never seen —
// the dict/lake mismatch UseIndexes surfaces so sessions rebuild instead of
// silently missing those values.
func TestAdoptDictDetectsLakeMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSetSharded(buildLake().Snapshot(), DefaultShards).SaveDir(dir); err != nil {
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
	s2, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.AdoptDict(s2.Dict); !errors.Is(err, lake.ErrDictMismatch) {
		t.Fatalf("got %v, want lake.ErrDictMismatch", err)
	}
}

// TestLoadDetectsDictFingerprintMismatch pairs a persisted set's substrates
// with a different dictionary (the torn-save shape): loading must fail
// loudly instead of resolving IDs against the wrong values.
func TestLoadDetectsDictFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSetSharded(buildLake().Snapshot(), DefaultShards).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	other := table.NewDict()
	other.InternValue(table.S("imposter"))
	err := saveFile(filepath.Join(dir, dictFileName), appendDictFile(nil, lake.Epoch{}, other.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrDictFingerprint) {
		t.Fatalf("got %v, want ErrDictFingerprint", err)
	}
}

// TestLoadRejectsV1Format: a dictionary file of another format version is
// refused, not served — its entries could mismatch current Value.Key output.
func TestLoadRejectsV1Format(t *testing.T) {
	b := appendDictFile(nil, lake.Epoch{}, buildLake().Dict().Snapshot())
	binary.LittleEndian.PutUint32(b[len(dictMagic):], dictFormatVersion+1)
	if _, _, err := parseDictFile(withChecksum(b)); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("got %v, want ErrCorruptIndex", err)
	}
}

// TestLoadRejectsGarbage: bytes that are not a dictionary file, and a
// missing file, fail the load.
func TestLoadRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("not a dictionary"), []byte(dictMagic + "\x01\x00\x00\x00")} {
		if _, _, err := parseDictFile(data); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%q: got %v, want ErrCorruptIndex", data, err)
		}
	}
	if _, err := readFile("/nonexistent", dictFileName); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzIndexDict feeds arbitrary bytes to the dictionary file loader. Any
// input must give a typed error or a dictionary and epoch whose encoding is
// the input: the layout is canonical, so decode ∘ encode is the identity.
func FuzzIndexDict(f *testing.F) {
	snap := buildLake().Snapshot()
	valid := appendDictFile(nil, snap.Epoch(), snap.Dict().Snapshot())
	f.Add(valid)
	f.Add(appendDictFile(nil, lake.Epoch{}, nil))
	f.Add(valid[:len(valid)/2])
	for _, at := range []int{0, len(dictMagic), dictHeaderLen, len(valid) - 5} {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x41
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withChecksum(data)} {
			d, e, err := parseDictFile(in)
			if err != nil {
				if !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("untyped error: %v", err)
				}
				continue
			}
			if got := appendDictFile(nil, e, d.Snapshot()); !bytes.Equal(got, in) {
				t.Fatalf("decode ∘ encode is not the identity:\n got %x\nwant %x", got, in)
			}
		}
	})
}

// TestLegacyInvertedFile: a directory whose only index files are in a
// retired layout — a pre-sharding inverted.gob, a v4 sharded set, the gob
// dictionary and MinHash files — fails the load with ErrStaleFormat
// (whatever the files hold: they are never decoded), and SaveDir removes the
// leftovers so a directory never holds two representations.
func TestLegacyInvertedFile(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	for _, legacy := range [][]string{
		{"inverted.gob"},
		{"inverted-shards.gob", "inverted-shard-000.gob", "inverted-shard-001.gob"},
		{"dict.gob", "epoch.gob", "minhash.gob"},
	} {
		dir := t.TempDir()
		if err := s.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, dictFileName)); err != nil {
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
				t.Fatalf("SaveDir left %s beside %s", name, dictFileName)
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
