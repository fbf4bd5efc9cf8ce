package index

import (
	"bytes"
	"encoding/binary"
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

// cosineRoundTrip encodes ix beside dict and parses the bytes back.
func cosineRoundTrip(ix *CosineLSH, dict *table.Dict) (*CosineLSH, error) {
	return parseCosine(appendCosine(nil, ix, dict.Fingerprint()), dict)
}

func TestCosinePersistRoundTrip(t *testing.T) {
	l := lake.New()
	laketest.Add(l, cityTable("cities", "", 20))
	laketest.Add(l, mkNumbers("numbers", 30))
	snap := l.Snapshot()
	ix := BuildCosineLSH(snap, nil)

	got, err := cosineRoundTrip(ix, snap.Dict())
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
	data := appendCosine(nil, ix, snap.Dict().Fingerprint())
	if _, err := parseCosine(data, other.Snapshot().Dict()); !errors.Is(err, ErrDictFingerprint) {
		t.Fatalf("wrong dictionary: err = %v, want ErrDictFingerprint", err)
	}
}

func TestCosineLoadRejectsCorruption(t *testing.T) {
	l := lake.New()
	laketest.Add(l, cityTable("t", "", 8))
	snap := l.Snapshot()
	raw := appendCosine(nil, BuildCosineLSH(snap, nil), snap.Dict().Fingerprint())
	// Truncation mid-payload must fail loudly.
	if _, err := parseCosine(raw[:len(raw)-9], snap.Dict()); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("truncated file: got %v, want ErrCorruptIndex", err)
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

	got, err := cosineRoundTrip(ix, snap.Dict())
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

// sampleCosine is a hand-built, dictionary-less, externally embedded index.
func sampleCosine() *CosineLSH {
	vecs := map[ColumnRef][]float32{
		{Table: "a", Col: 0}:      {1, 0, 0, 0},
		{Table: "a", Col: 2}:      {0, 0.5, -0.5, 0.25},
		{Table: "zz/tbl", Col: 1}: {-1, 2, -3, 4},
	}
	return &CosineLSH{embFP: 99, dim: 4, banded: bandedOver(cosineBandKeys(4), vecs, 0, []string{"a", "zz/tbl"})}
}

func TestVectorCodecRoundTrip(t *testing.T) {
	ix := sampleCosine()
	b := appendCosine(nil, ix, 0)
	got, err := parseCosine(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.dim != ix.dim || got.embFP != ix.embFP || got.Embeddable() || got.Dict() != nil ||
		!reflect.DeepEqual(viewOf(got.banded), viewOf(ix.banded)) {
		t.Fatalf("round trip diverged: %+v", got)
	}
	// Canonical: re-encoding the decode reproduces the bytes.
	if !bytes.Equal(appendCosine(nil, got, 0), b) {
		t.Fatal("encoding is not canonical")
	}
}

func TestVectorCodecRejects(t *testing.T) {
	good := appendCosine(nil, sampleCosine(), 0)
	body := good[:len(good)-4]
	forge := func(f func(b []byte) []byte) []byte { return withChecksum(f(append([]byte(nil), good...))) }
	dimAt := len(semanticMagic) + 1 + 8 + 1
	// The second vector is a/2; make it a/0, a duplicate of the first.
	secondCol := bytes.Index(good, []byte{1, 'a', 2}) + 2
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("GVEX"), good[4:]...),
		"bad version": forge(func(b []byte) []byte { b[len(semanticMagic)] = 1; return b }),
		"bad crc":     append(append([]byte(nil), body...), 0, 0, 0, 0),
		"truncated":   good[:len(good)-3],
		"trailing":    withChecksum(append(append(append([]byte(nil), body...), 0), 0, 0, 0, 0)),
		"count inflated": forge(func(b []byte) []byte {
			out := binary.AppendUvarint(append([]byte(nil), b[:semanticHeaderLen]...), 1<<40)
			return append(out, b[semanticHeaderLen+1:]...)
		}),
		"zero dim":      forge(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[dimAt:], 0); return b }),
		"huge dim":      forge(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[dimAt:], 1<<30); return b }),
		"unknown kind":  forge(func(b []byte) []byte { b[dimAt-1] = 7; return b }),
		"duplicate ref": forge(func(b []byte) []byte { b[secondCol] = 0; return b }),
	}
	for name, data := range cases {
		if _, err := parseCosine(data, nil); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: got %v, want ErrCorruptIndex", name, err)
		}
	}
}

// FuzzVectorCodec feeds arbitrary bytes to the semantic index loader. Any
// input must give a typed error or an index equal to a fresh build; the same
// bytes with the checksum recomputed — which reach the structural checks —
// must give a typed error or an index whose encoding is a fixed point and
// which answers a probe without panicking.
func FuzzVectorCodec(f *testing.F) {
	l := lake.New()
	laketest.Add(l, cityTable("cities", "", 12))
	laketest.Add(l, mkNumbers("numbers", 10))
	snap := l.Snapshot()
	dict := snap.Dict()
	fp := dict.Fingerprint()
	// A low dimension keeps every load cheap; the codec does not depend on it.
	fresh := BuildCosineLSH(snap, embed.NewNGramEmbedder(8, 3, 7))
	valid := appendCosine(nil, fresh, fp)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GVEC"))
	for _, at := range []int{len(semanticMagic) + 1, semanticHeaderLen, len(valid) - 9} {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x41
		f.Add(b)
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrCorruptIndex) || errors.Is(err, ErrDictFingerprint) ||
			errors.Is(err, ErrEmbedderFingerprint)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := parseCosine(data, dict)
		switch {
		case err != nil && !typed(err):
			t.Fatalf("untyped error: %v", err)
		case err == nil:
			if !bytes.Equal(appendCosine(nil, ix, fp), valid) || !ix.Embeddable() ||
				!reflect.DeepEqual(viewOf(ix.banded), viewOf(fresh.banded)) {
				t.Fatal("loaded index differs from a fresh build")
			}
		}
		ix, err = parseCosine(withChecksum(data), dict)
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped error with checksum fixed: %v", err)
			}
			return
		}
		enc := appendCosine(nil, ix, fp)
		again, err := parseCosine(enc, dict)
		if err != nil {
			t.Fatalf("re-parse of an encoding failed: %v", err)
		}
		if !bytes.Equal(appendCosine(nil, again, fp), enc) {
			t.Fatal("encoding did not reach a fixed point")
		}
		ix.SearchVector(make([]float32, ix.Dim()), 0, 4)
	})
}
