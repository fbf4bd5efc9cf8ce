package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func segTestTable(name string) *Table {
	t := New(name, "city", "pop", "note")
	t.AddRow(S("Boston"), N(650000), S("hub"))
	t.AddRow(S("Worcester"), N(200000), Null)
	t.AddRow(S("Boston"), N(650000), S("dup"))
	t.AddRow(Null, N(3), S("hub"))
	return t
}

func TestSegmentRoundTrip(t *testing.T) {
	tab := segTestTable("cities")
	d := NewDict()
	it := InternTable(d, tab)
	fp := Fingerprint(tab)
	dictLen, dictFP := d.PrefixStamp()

	path := filepath.Join(t.TempDir(), "cities.seg")
	if err := WriteSegmentFile(path, it, fp, dictLen, dictFP); err != nil {
		t.Fatalf("write: %v", err)
	}
	seg, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if seg.Name != "cities" || seg.TableFP != fp || seg.DictLen != dictLen || seg.DictFP != dictFP {
		t.Fatalf("footer mismatch: %+v", seg)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadSegment(path, raw, tab, fp, d)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got.Cols, it.Cols) {
		t.Fatalf("cols mismatch:\n got %v\nwant %v", got.Cols, it.Cols)
	}
	for c := range tab.Cols {
		if !reflect.DeepEqual(got.ColumnIDs(c), it.ColumnIDs(c)) {
			t.Fatalf("set %d mismatch: got %v want %v", c, got.ColumnIDs(c), it.ColumnIDs(c))
		}
	}
}

func TestSegmentStoreRoundTripAndVerification(t *testing.T) {
	st, err := NewSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tab := segTestTable("t one/with:odd name")
	d := NewDict()
	it := InternTable(d, tab)
	fp := Fingerprint(tab)
	if err := st.Write(it, fp, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Idempotent re-write (same content) must succeed and still load.
	if err := st.Write(it, fp, d); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	// The dictionary growing afterwards must not invalidate the stamp.
	d.InternValue(S("later value"))
	got, err := st.Load(tab, fp, d)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got.Cols, it.Cols) {
		t.Fatalf("cols mismatch after reload")
	}

	// Changed contents: the stored fingerprint no longer matches.
	edited := segTestTable(tab.Name)
	edited.AddRow(S("Springfield"), N(150000), Null)
	if _, err := st.Load(edited, Fingerprint(edited), d); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("load of changed table = %v, want ErrSegmentCorrupt", err)
	}

	// A foreign dictionary (different assignment history) fails the stamp.
	foreign := NewDict()
	foreign.InternValue(S("unrelated"))
	if _, err := st.Load(tab, fp, foreign); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("load under foreign dict = %v, want ErrSegmentCorrupt", err)
	}
}

func TestSegmentCorruptionIsTypedError(t *testing.T) {
	dir := t.TempDir()
	tab := segTestTable("corrupt")
	d := NewDict()
	it := InternTable(d, tab)
	fp := Fingerprint(tab)
	dictLen, dictFP := d.PrefixStamp()
	path := filepath.Join(dir, "corrupt.seg")
	if err := WriteSegmentFile(path, it, fp, dictLen, dictFP); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string][]byte{
		"truncated head":    raw[:4],
		"truncated trailer": raw[:len(raw)-5],
		"no data":           raw[len(raw)-12:],
		"bad header magic":  append([]byte("XXXXXXXX"), raw[8:]...),
		"bad trailer magic": append(append([]byte{}, raw[:len(raw)-8]...), []byte("XXXXXXXX")...),
		"empty":             {},
	}
	// Footer-length field pointing past the file.
	huge := append([]byte{}, raw...)
	huge[len(huge)-12] = 0xff
	huge[len(huge)-11] = 0xff
	mutations["oversized footer"] = huge
	for name, data := range mutations {
		p := filepath.Join(dir, "m.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegmentFile(p); !errors.Is(err, ErrSegmentCorrupt) && err == nil {
			t.Errorf("%s: open succeeded, want error", name)
		}
	}
	// An ID one past the stamped dictionary length must fail the load: the
	// footer still parses and both stamps still verify.
	bad := append([]byte{}, raw...)
	binary.LittleEndian.PutUint32(bad[8:], uint32(dictLen)+1) // first cell
	if _, err := readSegmentMeta(bytes.NewReader(bad), int64(len(bad))); err != nil {
		t.Fatalf("footer after in-block flip: %v (geometry unchanged, footer must still parse)", err)
	}
	if _, err := loadSegment(path, bad, tab, fp, d); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("load with out-of-dict ID = %v, want ErrSegmentCorrupt", err)
	}
	// So must a distinct set that is not strictly increasing: repeat the
	// first ID of the first column's set (it has two distinct cities).
	dup := append([]byte{}, raw...)
	set := 8 + len(tab.Rows)*len(tab.Cols)*4
	copy(dup[set+4:set+8], raw[set:set+4])
	if _, err := loadSegment(path, dup, tab, fp, d); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("load with a repeated set ID = %v, want ErrSegmentCorrupt", err)
	}
}

func TestDictPrefixStamp(t *testing.T) {
	d := NewDict()
	d.InternValue(S("a"))
	d.InternValue(N(7))
	n, fp := d.PrefixStamp()
	if n != 2 {
		t.Fatalf("PrefixStamp n = %d, want 2", n)
	}
	if !d.VerifyPrefixStamp(n, fp) {
		t.Fatal("fresh stamp does not verify")
	}
	d.InternValue(S("b"))
	if !d.VerifyPrefixStamp(n, fp) {
		t.Fatal("stamp must survive dictionary growth")
	}
	if d.VerifyPrefixStamp(n, fp^1) {
		t.Fatal("wrong fingerprint verified")
	}
	if d.VerifyPrefixStamp(99, fp) {
		t.Fatal("stamp beyond dictionary length verified")
	}
	// A dictionary with a different entry at position 2 must not verify.
	o := NewDict()
	o.InternValue(S("a"))
	o.InternValue(N(8))
	if o.VerifyPrefixStamp(n, fp) {
		t.Fatal("diverged dictionary verified the stamp")
	}
	// A restored snapshot must verify (same assignment history).
	r, err := NewDictFromSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !r.VerifyPrefixStamp(n, fp) {
		t.Fatal("snapshot-restored dictionary failed the stamp")
	}
}

// FuzzSegmentFooter pins the one-read segment loader to the satellite
// contract: arbitrary bytes on disk either load as a structurally consistent
// form or fail with ErrSegmentCorrupt — never a panic, never an absurd
// allocation. Bytes whose footer parses are also decoded against a
// dimension-matching table, so the block checks see inputs the stamps would
// otherwise turn away.
func FuzzSegmentFooter(f *testing.F) {
	tab := segTestTable("fuzzseed")
	d := NewDict()
	it := InternTable(d, tab)
	fp := Fingerprint(tab)
	dictLen, dictFP := d.PrefixStamp()
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.seg")
	if err := WriteSegmentFile(seedPath, it, fp, dictLen, dictFP); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte(segHeaderMagic + segTrailerMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := loadSegment("f.seg", data, tab, fp, d)
		if err != nil && !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("load error %v is not ErrSegmentCorrupt", err)
		}
		if err == nil {
			consistentForm(t, got, dictLen)
		}
		seg, err := readSegmentMeta(bytes.NewReader(data), int64(len(data)))
		if err != nil || seg.ncols > 64 || seg.nrows > 4096 {
			return
		}
		tt := New(seg.Name + "x")
		tt.Cols = make([]string, seg.ncols)
		for c := range tt.Cols {
			tt.Cols[c] = "c"
		}
		for r := 0; r < seg.nrows; r++ {
			tt.Rows = append(tt.Rows, make(Row, seg.ncols))
		}
		got, err = seg.decode(data, tt)
		if err != nil && !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("decode error %v is not ErrSegmentCorrupt", err)
		}
		if err == nil {
			consistentForm(t, got, seg.DictLen)
		}
	})
}

// consistentForm checks what a loaded form promises its readers: one column
// per table column, row-aligned, IDs within the stamped dictionary, and
// strictly increasing non-null distinct sets.
func consistentForm(t *testing.T, it *Interned, dictLen int) {
	t.Helper()
	if len(it.Cols) != len(it.Table.Cols) {
		t.Fatalf("%d columns for a %d-column table", len(it.Cols), len(it.Table.Cols))
	}
	for c, col := range it.Cols {
		if len(col) != len(it.Table.Rows) {
			t.Fatalf("column %d has %d cells for %d rows", c, len(col), len(it.Table.Rows))
		}
		for _, id := range col {
			if int(id) > dictLen {
				t.Fatalf("ID %d beyond dictionary length %d", id, dictLen)
			}
		}
		prev := NullID
		for _, id := range it.ColumnIDs(c) {
			if id <= prev {
				t.Fatalf("column %d set not strictly increasing", c)
			}
			prev = id
		}
	}
}
