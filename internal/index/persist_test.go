package index

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// bound binds a loaded set to snap, failing the test on a mismatch.
func bound(t *testing.T, s *IndexSet, snap *lake.Snapshot) *IndexSet {
	t.Helper()
	b, err := s.Bind(snap)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return b
}

// TestIndexSetDictRoundTrip persists a set and reloads it: exactly
// inverted.bin is written (the LSH never is, nor the dictionary), the loaded
// index is bound to no dictionary until Bind binds it to the lake's own, and
// searches through the reloaded set must match the live one exactly.
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
	if want := []string{invertedFileName}; !slices.Equal(files, want) {
		t.Fatalf("SaveDir wrote %v, want %v", files, want)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dict != nil || loaded.Inverted == nil || loaded.Inverted.Dict() != nil || loaded.LSH != nil {
		t.Fatal("a loaded set must hold an unbound inverted index and nothing else")
	}
	got := bound(t, loaded, l.Snapshot())
	if got.Dict != l.Dict() || got.Inverted.Dict() != l.Dict() {
		t.Fatal("Bind did not bind the set to the lake's dictionary")
	}
	if loaded.Inverted.Dict() != nil {
		t.Fatal("Bind modified the loaded set")
	}
	a := searchValues(s.Inverted, table.S("Smith"), table.S("Boston"))
	b := searchValues(got.Inverted, table.S("Smith"), table.S("Boston"))
	if !slices.Equal(a, b) {
		t.Fatalf("search diverged after round trip: %v vs %v", a, b)
	}
}

// TestBindDetectsLakeMismatch persists a set over one lake and binds it to
// others: a fresh lake of the same tables interns the same dictionary and
// binds; a lake whose tables intern in another order, or one missing the
// values of a table, does not verify the stamp and is refused with
// lake.ErrDictMismatch, the refusal UseIndexes surfaces so sessions rebuild
// instead of resolving IDs to the wrong values. A set built in this process
// binds only to its own lake's dictionary.
func TestBindDetectsLakeMismatch(t *testing.T) {
	dir := t.TempDir()
	built := BuildIndexSetSharded(buildLake().Snapshot(), DefaultShards)
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	s, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh lakes of the same tables, bound at once: each interns the same
	// dictionary, and the shared loaded set is only read.
	lakes := make([]*lake.Lake, 4)
	var wg sync.WaitGroup
	for i := range lakes {
		lakes[i] = buildLake()
		wg.Add(1)
		go func(l *lake.Lake) {
			defer wg.Done()
			if _, err := s.Bind(l.Snapshot()); err != nil {
				t.Errorf("binding to a fresh lake of the same tables: %v", err)
			}
		}(lakes[i])
	}
	wg.Wait()
	same := lakes[0]

	// The same tables put in another order intern their values in another
	// order.
	reordered := lake.New()
	for _, name := range []string{"cities", "people", "mixed"} {
		laketest.Add(reordered, buildLake().Snapshot().Get(name))
	}
	// Without the mixed table, the lake lacks two of the dictionary's values.
	short := lake.New()
	for _, name := range []string{"people", "cities"} {
		laketest.Add(short, buildLake().Snapshot().Get(name))
	}
	for name, l := range map[string]*lake.Lake{"reordered": reordered, "short": short} {
		if _, err := s.Bind(l.Snapshot()); !errors.Is(err, lake.ErrDictMismatch) {
			t.Fatalf("%s: got %v, want lake.ErrDictMismatch", name, err)
		}
	}
	if _, err := built.Bind(same.Snapshot()); !errors.Is(err, lake.ErrDictMismatch) {
		t.Fatalf("in-memory set over another lake: got %v, want lake.ErrDictMismatch", err)
	}
}

// TestLoadDetectsDictFingerprintMismatch forges the dictionary stamp of a
// saved file under a valid checksum: the file loads (the stamp is only two
// numbers), but it binds to no dictionary, so no ID is ever resolved against
// the wrong values.
func TestLoadDetectsDictFingerprintMismatch(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	n, fp := l.Dict().PrefixStamp()
	for name, stamp := range map[string][2]uint64{
		"fingerprint": {uint64(n), fp ^ 1},
		"length":      {uint64(n) + 1, fp},
	} {
		b := appendInverted(nil, s.Inverted, s.Epoch, n, fp)
		binary.LittleEndian.PutUint64(b[len(invertedMagic)+20:], stamp[0])
		binary.LittleEndian.PutUint64(b[len(invertedMagic)+28:], stamp[1])
		inv, _, err := parseInverted(withChecksum(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := (&IndexSet{Inverted: inv}).Bind(l.Snapshot()); !errors.Is(err, lake.ErrDictMismatch) {
			t.Fatalf("%s: got %v, want lake.ErrDictMismatch", name, err)
		}
	}
}

// TestLoadRejectsV1Format: an inverted file of another format version is
// refused, not served — an earlier one as stale (rebuild), a later one as
// corrupt.
func TestLoadRejectsV1Format(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	n, fp := l.Dict().PrefixStamp()
	for _, v := range []uint32{1, invertedFormatVersion - 1, invertedFormatVersion + 1} {
		b := appendInverted(nil, s.Inverted, s.Epoch, n, fp)
		binary.LittleEndian.PutUint32(b[len(invertedMagic):], v)
		_, _, err := parseInverted(withChecksum(b))
		if !errors.Is(err, ErrCorruptIndex) || errors.Is(err, ErrStaleFormat) != (v < invertedFormatVersion) {
			t.Fatalf("v%d: got %v", v, err)
		}
	}
}

// TestLoadRejectsGarbage: bytes that are not an inverted file, and a
// missing file, fail the load.
func TestLoadRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("not an index"), []byte(invertedMagic + "\x06\x00\x00\x00")} {
		if _, _, err := parseInverted(data); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%q: got %v, want ErrCorruptIndex", data, err)
		}
	}
	if _, err := readFile("/nonexistent", invertedFileName); err == nil {
		t.Error("missing file accepted")
	}
}

// v5File is the header of an inverted.bin in the retired format v5, which
// sat beside a dict.bin.
func v5File() []byte {
	return binary.LittleEndian.AppendUint32([]byte(invertedMagic), 5)
}

// TestLegacyInvertedFile: a directory whose index files are in a retired
// layout — a pre-sharding inverted.gob, a v4 sharded set, the gob
// dictionary and MinHash files, a v5 inverted.bin beside its dict.bin —
// fails the load with ErrStaleFormat (whatever the retired files hold: they
// are never decoded), and SaveDir removes the leftovers so a directory never
// holds two representations.
func TestLegacyInvertedFile(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	for _, legacy := range [][]string{
		{"inverted.gob"},
		{"inverted-shards.gob", "inverted-shard-000.gob", "inverted-shard-001.gob"},
		{"dict.gob", "epoch.gob", "minhash.gob"},
		{"dict.bin", invertedFileName},
	} {
		dir := t.TempDir()
		for _, name := range legacy {
			data := []byte("an older inverted index")
			if name == invertedFileName {
				data = v5File()
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
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
			if name != invertedFileName && fileExists(filepath.Join(dir, name)) {
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
// posting-ID count, the stamped dictionary length — must fail with
// ErrCorruptIndex before anything is sized by the count, never a makeslice
// panic or an attempt to allocate it; so must a file whose IDs run past the
// dictionary it is stamped with.
func TestLoadRejectsForgedShardCount(t *testing.T) {
	l := buildLake()
	s := BuildIndexSetSharded(l.Snapshot(), 3)
	n, fp := s.Dict.PrefixStamp()
	valid := appendInverted(nil, s.Inverted, s.Epoch, n, fp)
	if _, _, err := parseInverted(valid); err != nil {
		t.Fatalf("valid file: %v", err)
	}
	fanOutAt := invertedHeaderLen - 4
	for _, n := range []uint32{0, maxFanOut + 1, 1<<32 - 1} {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[fanOutAt:], n)
		if _, _, err := parseInverted(withChecksum(b)); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("fan-out %d: got %v, want ErrCorruptIndex", n, err)
		}
	}
	b := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(b[len(invertedMagic)+20:], 1<<32)
	if _, _, err := parseInverted(withChecksum(b)); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("dictionary length 1<<32: got %v, want ErrCorruptIndex", err)
	}
	// The column count is the first uvarint after the header; the ID count
	// follows the column table.
	_, w := binary.Uvarint(valid[invertedHeaderLen:])
	for _, n := range []uint64{1 << 40, 1 << 20, uint64(len(s.Inverted.ps.refs)) + 1} {
		b := append([]byte(nil), valid[:invertedHeaderLen]...)
		b = binary.AppendUvarint(b, n)
		b = append(b, valid[invertedHeaderLen+w:]...)
		if _, _, err := parseInverted(withChecksum(b)); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("column count %d: got %v, want ErrCorruptIndex", n, err)
		}
	}
	ids := s.Inverted.ps.ids()
	w = uvarintLen(uint64(ids))
	idsAt := len(valid) - 4 - len(s.Inverted.ps.slab) - 4*len(s.Inverted.ps.off) - w
	if got, _ := binary.Uvarint(valid[idsAt:]); int(got) != ids {
		t.Fatalf("ID count located wrongly: read %d, want %d", got, ids)
	}
	for _, n := range []uint64{1 << 40, uint64(s.Dict.Len()) + 2, uint64(ids) + 1} {
		b := append([]byte(nil), valid[:idsAt]...)
		b = binary.AppendUvarint(b, n)
		b = append(b, valid[idsAt+w:]...)
		if _, _, err := parseInverted(withChecksum(b)); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("ID count %d: got %v, want ErrCorruptIndex", n, err)
		}
	}

	// A consistent file stamped with a shorter dictionary: its postings for
	// the IDs past that dictionary would match a query overlay's transient
	// IDs.
	past := appendInverted(nil, s.Inverted, s.Epoch, n-2, fp)
	if _, _, err := parseInverted(past); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("postings past the dictionary: got %v, want ErrCorruptIndex", err)
	}
}

// TestSaveDirRequiresDict: a set whose inverted index is bound to no
// dictionary — a loaded one, before Bind — must refuse to persist rather
// than write a stamp it cannot vouch for.
func TestSaveDirRequiresDict(t *testing.T) {
	dir := t.TempDir()
	if err := BuildIndexSetSharded(buildLake().Snapshot(), DefaultShards).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.SaveDir(t.TempDir()); !errors.Is(err, ErrDictRequired) {
		t.Fatalf("got %v, want ErrDictRequired", err)
	}
}
