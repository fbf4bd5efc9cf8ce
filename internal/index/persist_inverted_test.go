package index

import (
	"errors"
	"maps"
	"reflect"
	"testing"

	"gent/internal/lake"
	"gent/internal/table"
)

// withChecksum returns b with its CRC-32C trailer recomputed, so a forged
// field reaches the structural checks instead of failing the checksum.
func withChecksum(b []byte) []byte {
	if len(b) < 4 {
		return append([]byte(nil), b...)
	}
	return table.AppendCRC(append([]byte(nil), b[:len(b)-4]...))
}

// FuzzInvertedFile feeds arbitrary bytes to the inverted index loader. Any
// input must give a typed error or an index whose epoch, dictionary stamp,
// postings, column sizes and probes equal a fresh build's, and which binds
// to the lake's dictionary; the same bytes with the checksum recomputed —
// which reach the structural checks — must give a typed error or an index
// that answers every probe without panicking and binds or is refused with
// lake.ErrDictMismatch.
func FuzzInvertedFile(f *testing.F) {
	snap := buildLake().Snapshot()
	fresh := BuildInvertedSharded(snap, 3)
	dict := snap.Dict()
	n, fp := dict.PrefixStamp()
	valid := appendInverted(nil, fresh, snap.Epoch(), n, fp)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	for _, at := range []int{0, len(invertedMagic), invertedHeaderLen, invertedHeaderLen + 7, len(valid) - 20, len(valid) - 5} {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x41
		f.Add(b)
	}
	wantPostings := flatPostingsView(fresh)
	allIDs := make([]uint32, dict.Len()+2)
	for i := range allIDs {
		allIDs[i] = uint32(i)
	}
	wantProbe := fresh.SearchIDs(allIDs)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, e, err := parseInverted(append([]byte(nil), data...))
		switch {
		case err != nil && !errors.Is(err, ErrCorruptIndex):
			t.Fatalf("untyped error: %v", err)
		case err == nil:
			if e != snap.Epoch() || ix.savedLen != n || ix.savedFP != fp {
				t.Fatal("loaded epoch or dictionary stamp differs from the saved one")
			}
			if !reflect.DeepEqual(flatPostingsView(ix), wantPostings) || !maps.Equal(ix.colSizes, fresh.colSizes) {
				t.Fatal("loaded postings or column sizes differ from a fresh build")
			}
			if !reflect.DeepEqual(ix.SearchIDs(allIDs), wantProbe) {
				t.Fatal("loaded probe differs from a fresh build's")
			}
			if _, err := (&IndexSet{Inverted: ix}).Bind(snap); err != nil {
				t.Fatalf("a valid file does not bind: %v", err)
			}
		}
		ix, _, err = parseInverted(withChecksum(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error with checksum fixed: %v", err)
			}
			return
		}
		ix.SearchIDs(allIDs)
		for id := range allIDs {
			ix.base.columnIDs(uint32(id))
		}
		if _, err := (&IndexSet{Inverted: ix}).Bind(snap); err != nil && !errors.Is(err, lake.ErrDictMismatch) {
			t.Fatalf("untyped bind error: %v", err)
		}
	})
}
