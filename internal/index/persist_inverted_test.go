package index

import (
	"context"
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

// maintainedLake returns a lake's snapshot with an index of it maintained by
// deltas, whose column table holds both a free colID and colIDs reused by
// other columns: "cities" gives way to a three-column table that takes its
// two colIDs and a new one, and comes back when that table goes, leaving the
// new colID free.
func maintainedLake(tb testing.TB) (*lake.Snapshot, *Inverted) {
	tb.Helper()
	l := buildLake()
	prev := l.Snapshot()
	ix := BuildInvertedSharded(prev, 3)
	cities := prev.Get("cities")
	wide := table.New("wide", "a", "b", "c")
	wide.AddRow(table.S("Boston"), table.S("Lowell"), table.N(7))
	for _, muts := range [][]lake.Mutation{
		{lake.Drop("cities"), lake.Put(wide)},
		{lake.Drop("wide"), lake.Put(cities)},
	} {
		if _, err := l.Apply(context.Background(), muts...); err != nil {
			tb.Fatal(err)
		}
		snap := l.Snapshot()
		added, removed, _ := lake.Diff(prev, snap)
		snap.EnsureInterned()
		ix = ix.WithDelta(forms(snap, added), forms(prev, removed))
		prev = snap
	}
	return prev, ix
}

// TestMaintainedInvertedFile: a file saved from a maintained index with free
// and reused colIDs loads, binds, and serves a fresh build's postings,
// column sizes and probes.
func TestMaintainedInvertedFile(t *testing.T) {
	snap, ix := maintainedLake(t)
	if live := liveColumns(snap); len(ix.ps.refs) != live+1 {
		t.Fatalf("%d colIDs for %d columns, want one free colID and the rest reused", len(ix.ps.refs), live)
	}
	loaded := saveLoad(t, ix, snap)
	fresh := BuildInvertedSharded(snap, 3)
	checkMaintained(t, "loaded", loaded, fresh, liveColumns(snap)+1)
	all := make([]uint32, snap.Dict().Len()+1)
	for i := range all {
		all[i] = uint32(i)
	}
	if !reflect.DeepEqual(loaded.SearchIDs(all), fresh.SearchIDs(all)) {
		t.Fatal("loaded probe differs from a fresh build's")
	}
}

// FuzzInvertedFile feeds arbitrary bytes to the inverted index loader. Any
// input must give a typed error or an index whose epoch, dictionary stamp,
// postings, column sizes and probes equal a fresh build's, and which binds
// to the lake's dictionary; the same bytes with the checksum recomputed —
// which reach the structural checks — must give a typed error or an index
// that answers every probe without panicking and binds or is refused with
// lake.ErrDictMismatch.
func FuzzInvertedFile(f *testing.F) {
	snap, maintained := maintainedLake(f)
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
	f.Add(appendInverted(nil, maintained, snap.Epoch(), n, fp))
	wantPostings, wantSizes := flatPostingsView(fresh), sizesView(fresh)
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
			if !reflect.DeepEqual(flatPostingsView(ix), wantPostings) || !maps.Equal(sizesView(ix), wantSizes) {
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
		flatPostingsView(ix)
		if _, err := (&IndexSet{Inverted: ix}).Bind(snap); err != nil && !errors.Is(err, lake.ErrDictMismatch) {
			t.Fatalf("untyped bind error: %v", err)
		}
	})
}
