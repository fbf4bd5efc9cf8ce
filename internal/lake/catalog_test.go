package lake

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gent/internal/table"
)

// decodeCatalog is readCatalog on bytes already in memory.
func decodeCatalog(b []byte) (*catalog, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorruptCatalog, len(b))
	}
	h := table.NewCRC()
	h.Write(b[:len(b)-4])
	return parseCatalog(string(b), h.Sum32())
}

// exactTable reports a and b equal the way reflect.DeepEqual does — nil and
// empty slices differ — except that a number compares by its float bits, so
// a NaN equals itself.
func exactTable(a, b *table.Table) bool {
	ha, hb := *a, *b
	ha.Rows, hb.Rows = nil, nil
	if !reflect.DeepEqual(ha, hb) || (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, r := range a.Rows {
		if len(r) != len(b.Rows[i]) {
			return false
		}
		for j, v := range r {
			w := b.Rows[i][j]
			if v.Kind != w.Kind || v.Str != w.Str || v.ID != w.ID ||
				math.Float64bits(v.Num) != math.Float64bits(w.Num) {
				return false
			}
		}
	}
	return true
}

// sameCatalog fails t unless a and b hold the same epoch, tables,
// fingerprints and dictionary entries.
func sameCatalog(t *testing.T, a, b *catalog) {
	t.Helper()
	if a.epoch != b.epoch || !reflect.DeepEqual(a.fps, b.fps) || len(a.tables) != len(b.tables) {
		t.Fatalf("catalog header diverged: %v %v / %v %v", a.epoch, a.fps, b.epoch, b.fps)
	}
	for i := range a.tables {
		if !exactTable(a.tables[i], b.tables[i]) {
			t.Fatalf("table %d diverged:\n%#v\n%#v", i, a.tables[i], b.tables[i])
		}
	}
	if !reflect.DeepEqual(a.dict.Snapshot(), b.dict.Snapshot()) {
		t.Fatal("dictionary diverged")
	}
}

// roundTripTables covers every cell kind and payload the format carries.
func roundTripTables() []*table.Table {
	negZero := math.Copysign(0, -1)
	odd := table.New("odd", "kind\x00col", "ключ", "n")
	odd.Key = []int{1, 0}
	odd.AddRow(table.S("a\x00b\x01c\x02"), table.S("日本語"), table.Value{Kind: table.KindNumber, Str: "NaN?", Num: math.NaN()})
	odd.AddRow(table.Label(-7), table.Label(1<<62), table.Value{Kind: table.KindNumber, Str: "-0.00", Num: negZero})
	odd.AddRow(table.Null, table.S(""), table.Value{Kind: table.KindNumber, Str: "+inf", Num: math.Inf(1)})
	odd.AddRow(table.Parse("007"), table.N(7), table.Value{Kind: table.KindNumber, Str: "", Num: math.Inf(-1)})
	keyed := table.New("keyed", "k")
	keyed.Key = []int{0}
	keyed.AddRow(table.S("alpha-value"))
	return []*table.Table{
		{Name: "empty"},
		table.New("zero-rows", "a", "b"),
		{Name: "zero-rows-keyed", Cols: []string{"a"}, Key: []int{0}},
		odd,
		keyed,
	}
}

// TestCatalogRoundTrip: every table comes back exactly as persisted — nil
// where it was nil, every spelling, every float bit — with its fingerprint.
func TestCatalogRoundTrip(t *testing.T) {
	tabs := roundTripTables()
	l := New()
	addAll(t, l, tabs...)
	dir := t.TempDir()
	if err := l.Persist(dir); err != nil {
		t.Fatal(err)
	}
	ol, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ol.Epoch() != l.Epoch() {
		t.Fatalf("epoch: got %v, want %v", ol.Epoch(), l.Epoch())
	}
	for _, want := range tabs {
		got := ol.Snapshot().Get(want.Name)
		if got == nil || !exactTable(got, want) {
			t.Fatalf("table %s did not round-trip:\n got %#v\nwant %#v", want.Name, got, want)
		}
		if table.Fingerprint(got) != table.Fingerprint(want) {
			t.Fatalf("table %s: fingerprint changed", want.Name)
		}
		if !reflect.DeepEqual(ol.Snapshot().Interned(want.Name).Cols, l.Snapshot().Interned(want.Name).Cols) {
			t.Fatalf("table %s: interned form changed", want.Name)
		}
	}
	if !reflect.DeepEqual(ol.Dict().Snapshot(), l.Dict().Snapshot()) {
		t.Fatal("dictionary did not round-trip")
	}
	// Without NaN cells reflect.DeepEqual itself holds.
	for _, n := range []string{"empty", "zero-rows", "zero-rows-keyed", "keyed"} {
		if !reflect.DeepEqual(ol.Snapshot().Get(n), l.Snapshot().Get(n)) {
			t.Fatalf("table %s is not DeepEqual after the round trip", n)
		}
	}
}

// TestPersistRefusesRowsWithoutColumns: such rows carry no bytes in the flat
// format, so Persist refuses them instead of writing a catalog that would
// not read back.
func TestPersistRefusesRowsWithoutColumns(t *testing.T) {
	l := New()
	addAll(t, l, &table.Table{Name: "bare", Rows: []table.Row{{}}})
	if err := l.Persist(t.TempDir()); !errors.Is(err, table.ErrShape) {
		t.Fatalf("Persist = %v, want table.ErrShape", err)
	}
}

// TestOpenRejectsCorruptCatalog: every truncation and every single-byte flip
// of a persisted catalog fails Open with a typed error. A flip inside a cell
// ("alpha-value" → "Xlpha-value") parses as a clean catalog; only the
// checksum catches it, and without it the table and its segment would
// disagree.
func TestOpenRejectsCorruptCatalog(t *testing.T) {
	l := New()
	addAll(t, l, roundTripTables()[3:]...)
	dir := t.TempDir()
	if err := l.Persist(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, catalogFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "alpha-value") {
		t.Fatal("fixture lost its cell")
	}
	open := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, ErrCorruptCatalog) && !errors.Is(err, table.ErrShape) {
			t.Fatalf("%s: Open = %v, want ErrCorruptCatalog or table.ErrShape", what, err)
		}
	}
	for n := 0; n < len(raw); n++ {
		open(fmt.Sprintf("truncated to %d bytes", n), raw[:n])
	}
	for i := range raw {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			b := append([]byte(nil), raw...)
			b[i] ^= x
			open(fmt.Sprintf("byte %d ^ %#x", i, x), b)
		}
	}
	flipped := []byte(strings.Replace(string(raw), "alpha-value", "Xlpha-value", 1))
	open("alpha-value → Xlpha-value", flipped)
	if _, err := decodeCatalog(withChecksum(flipped[:len(flipped)-4])); err != nil {
		t.Fatalf("with its checksum fixed the flipped catalog should parse: %v", err)
	}
	// Bytes past the dictionary fail even under a valid checksum, and so
	// does a table count the file cannot hold (it must not size an
	// allocation first). The fixture's count is the one byte after the header.
	open("a trailing byte", withChecksum(append(raw[:len(raw)-4:len(raw)-4], 0)))
	forged := binary.AppendUvarint(append([]byte(nil), raw[:catalogHeaderLen]...), 1<<40)
	open("a forged table count", withChecksum(append(forged, raw[catalogHeaderLen+1:len(raw)-4]...)))
}

// withChecksum returns body followed by its CRC-32C trailer.
func withChecksum(body []byte) []byte {
	return table.AppendCRC(body[:len(body):len(body)])
}

// TestOpenRefusesGobCatalog: a directory persisted before format v2 holds
// only catalog.gob. Open says to persist again, and persisting again retires
// the old file.
func TestOpenRefusesGobCatalog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyCatalogFileName)
	if err := os.WriteFile(legacy, []byte("\x1f\xff\x81\x03\x01\x01\x0bcatalogDisk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptCatalog) || !strings.Contains(err.Error(), "persist the lake again") {
		t.Fatalf("Open = %v, want ErrCorruptCatalog asking to persist again", err)
	}
	l := New()
	addAll(t, l, cacheTestTable("a", 3))
	if err := l.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Persist left the gob catalog behind: %v", err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of an empty directory = %v, want fs.ErrNotExist", err)
	}
}

// TestEvictingLoadedFormWritesNothing: a form loaded from the attached store
// is dropped on eviction without touching the store — even a segment that
// has vanished since stays vanished, and costs one re-intern with the same
// IDs. A form loaded from a store that SetSegmentStore has since replaced
// spills to the new store.
func TestEvictingLoadedFormWritesNothing(t *testing.T) {
	l := New()
	for i := 0; i < 4; i++ {
		addAll(t, l, cacheTestTable(fmt.Sprintf("t%d", i), 30))
	}
	l.EnsureInterned()
	one := l.CacheStats().ResidentBytes / 4 // every form is the same size
	dir := t.TempDir()
	if err := l.Persist(dir); err != nil {
		t.Fatal(err)
	}
	ol, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ol.SetResidentBudget(one)
	snap := ol.Snapshot()
	st, err := table.NewSegmentStore(filepath.Join(dir, segmentsDirName))
	if err != nil {
		t.Fatal(err)
	}

	snap.Interned("t0")
	if err := os.Remove(st.SegmentPath("t0")); err != nil {
		t.Fatal(err)
	}
	snap.Interned("t1") // evicts t0
	if s := ol.CacheStats(); s.Loads != 2 || s.Evictions != 1 || s.Spills != 0 || s.SpillErrors != 0 {
		t.Fatalf("after evicting a loaded form: %+v", s)
	}
	if _, err := os.Stat(st.SegmentPath("t0")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("evicting a loaded form wrote its segment: %v", err)
	}
	sameForm(t, snap.Interned("t0"), l.Snapshot().Interned("t0")) // evicts t1
	if s := ol.CacheStats(); s.Reinterns != 1 || s.Evictions != 2 || s.Spills != 0 {
		t.Fatalf("after re-interning the lost form: %+v", s)
	}

	snap.Interned("t3") // loaded from the first store; evicts t0, which spills
	spills := ol.CacheStats().Spills
	if spills != 1 {
		t.Fatalf("an in-memory form did not spill: %+v", ol.CacheStats())
	}
	st2, err := table.NewSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ol.SetSegmentStore(st2)
	snap.Interned("t2") // not in the new store: re-interned; evicts t3
	if s := ol.CacheStats(); s.Spills != spills+1 {
		t.Fatalf("a form from the replaced store did not spill: %+v", s)
	}
	if _, err := os.Stat(st2.SegmentPath("t3")); err != nil {
		t.Fatalf("the new store has no segment for t3: %v", err)
	}
	sameForm(t, snap.Interned("t3"), l.Snapshot().Interned("t3"))
}

// TestEvictingRenamedLoadedFormSpills: a rename carries a loaded form over
// to the new name, whose segment the store does not hold yet — so evicting
// it spills under the new name.
func TestEvictingRenamedLoadedFormSpills(t *testing.T) {
	l := New()
	addAll(t, l, cacheTestTable("a", 30), cacheTestTable("b", 30))
	l.EnsureInterned()
	one := l.CacheStats().ResidentBytes / 2
	dir := t.TempDir()
	if err := l.Persist(dir); err != nil {
		t.Fatal(err)
	}
	ol, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ol.SetResidentBudget(one)
	ol.Snapshot().Interned("a") // loaded from the store
	if _, err := ol.Apply(context.Background(), Rename("a", "renamed")); err != nil {
		t.Fatal(err)
	}
	ol.Snapshot().Interned("b") // evicts the renamed form
	s := ol.CacheStats()
	if s.Spills != 1 {
		t.Fatalf("the renamed form did not spill: %+v", s)
	}
	st, err := table.NewSegmentStore(filepath.Join(dir, segmentsDirName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.SegmentPath("renamed")); err != nil {
		t.Fatalf("no segment under the new name: %v", err)
	}
	ol.Snapshot().Interned("renamed")
	if s := ol.CacheStats(); s.Loads != 3 || s.Reinterns != 0 {
		t.Fatalf("the renamed form should load from its new segment: %+v", s)
	}
}

// FuzzCatalog: arbitrary bytes either fail with a typed error or decode to a
// catalog whose every table passes Validate, and encoding a decoded catalog
// then decoding it again gives the same catalog back. Each input is tried
// twice: as a file, where the checksum turns most away, and with its
// checksum fixed, which takes the fuzzer into the layout itself.
func FuzzCatalog(f *testing.F) {
	l := New()
	addAll(f, l, roundTripTables()...)
	if _, err := l.Apply(context.Background(), Drop("empty")); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := l.Persist(dir); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, catalogFileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(catalogMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		body := data
		if len(body) >= 4 {
			body = body[:len(body)-4]
		}
		for _, b := range [][]byte{data, withChecksum(body)} {
			c, err := decodeCatalog(b)
			if err != nil {
				if !errors.Is(err, ErrCorruptCatalog) && !errors.Is(err, table.ErrShape) {
					t.Fatalf("untyped error: %v", err)
				}
				continue
			}
			for _, tb := range c.tables {
				if err := tb.Validate(); err != nil {
					t.Fatalf("decoded an invalid table: %v", err)
				}
			}
			again, err := appendCatalog(nil, c)
			if err != nil {
				t.Fatalf("re-encoding a decoded catalog: %v", err)
			}
			c2, err := decodeCatalog(again)
			if err != nil {
				t.Fatalf("decoding a re-encoded catalog: %v", err)
			}
			sameCatalog(t, c, c2)
		}
	})
}
