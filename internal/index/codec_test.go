package index

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleVectors() (int, map[ColumnRef][]float32) {
	return 4, map[ColumnRef][]float32{
		{Table: "a", Col: 0}:      {1, 0, 0, 0},
		{Table: "a", Col: 2}:      {0, 0.5, -0.5, 0.25},
		{Table: "zz/tbl", Col: 1}: {-1, 2, -3, 4},
	}
}

func TestVectorCodecRoundTrip(t *testing.T) {
	dim, vecs := sampleVectors()
	b := encodeVectors(dim, vecs)
	gotDim, got, err := decodeVectors(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotDim != dim || !reflect.DeepEqual(got, vecs) {
		t.Fatalf("round trip diverged: dim %d, %v", gotDim, got)
	}
	// Canonical: re-encoding the decode reproduces the bytes.
	if !bytes.Equal(encodeVectors(gotDim, got), b) {
		t.Fatal("encoding is not canonical")
	}
}

func TestVectorCodecRejects(t *testing.T) {
	dim, vecs := sampleVectors()
	good := encodeVectors(dim, vecs)
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("GVEX"), good[4:]...),
		"bad version":  append([]byte("GVEC\x07"), good[5:]...),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0),
		"count inflat": func() []byte { b := append([]byte{}, good...); b[9] = 0xff; return b }(),
		"zero dim":     func() []byte { b := append([]byte{}, good...); b[5], b[6], b[7], b[8] = 0, 0, 0, 0; return b }(),
	}
	for name, data := range cases {
		if _, _, err := decodeVectors(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzVectorCodec: any byte string either fails to decode or reaches a
// canonical fixed point — decode → encode → decode reproduces the same
// vector set and the same bytes, with no panic or unbounded allocation.
func FuzzVectorCodec(f *testing.F) {
	dim, vecs := sampleVectors()
	f.Add(encodeVectors(dim, vecs))
	f.Add(encodeVectors(1, map[ColumnRef][]float32{{Table: "", Col: 0}: {0}}))
	f.Add([]byte("GVEC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d1, v1, err := decodeVectors(data)
		if err != nil {
			return
		}
		enc := encodeVectors(d1, v1)
		d2, v2, err := decodeVectors(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if d1 != d2 {
			t.Fatalf("dim changed across round trip: %d → %d", d1, d2)
		}
		// Compare re-encodings, not maps: NaN payloads are legal bit
		// patterns and must round-trip, but NaN != NaN under DeepEqual.
		if !bytes.Equal(enc, encodeVectors(d2, v2)) {
			t.Fatal("encoding did not reach a fixed point")
		}
	})
}
