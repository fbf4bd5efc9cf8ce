package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// TestShardedFanOutProbe drives a query past the fan-out threshold so the
// parallel per-shard counting path runs, and pins its output to the
// specification's and to the inline probe of a single shard.
func TestShardedFanOutProbe(t *testing.T) {
	l := lake.New()
	big := table.New("big", "a", "b")
	for i := 0; i < 2000; i++ {
		big.AddRow(table.S(fmt.Sprintf("val%d", i)), table.N(float64(i%500)))
	}
	laketest.Add(l, big)
	small := table.New("small", "x")
	for i := 0; i < 100; i++ {
		small.AddRow(table.S(fmt.Sprintf("val%d", i*7)))
	}
	laketest.Add(l, small)

	query := make([]table.Value, 2100) // past val1999: values the lake never saw
	for i := range query {
		query[i] = table.S(fmt.Sprintf("val%d", i))
	}
	if len(query) < shardProbeFanOut {
		t.Fatalf("query too small to exercise fan-out: %d values", len(query))
	}
	snap := l.Snapshot()
	want := specOverlaps(snap, query)
	for _, nshards := range []int{1, 4} {
		if got := searchValues(BuildInvertedSharded(snap, nshards), query...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: large probe diverged from the specification:\n got %v\nwant %v", nshards, got, want)
		}
	}
}

// TestShardedIndexSetRoundTrip persists a set built at fan-out 4 and loads
// it back: one inverted file on disk, the fan-out width kept, identical
// postings and search results.
func TestShardedIndexSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	l := randomEquivLake(rng)
	snap := l.Snapshot()
	set := BuildIndexSetSharded(snap, 4)
	if set.Inverted.Shards() != 4 {
		t.Fatalf("built set has %d shards, want 4", set.Inverted.Shards())
	}
	dir := t.TempDir()
	if err := set.SaveDir(dir); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	if !fileExists(filepath.Join(dir, invertedFileName)) {
		t.Fatalf("save left no %s", invertedFileName)
	}

	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatalf("LoadIndexSetDir: %v", err)
	}
	loaded = bound(t, loaded, snap)
	if loaded.Inverted.Shards() != 4 {
		t.Fatalf("loaded set has %d shards, want 4", loaded.Inverted.Shards())
	}
	if loaded.Epoch != set.Epoch {
		t.Fatalf("epoch stamp: got %+v, want %+v", loaded.Epoch, set.Epoch)
	}
	if !reflect.DeepEqual(flatPostingsView(loaded.Inverted), flatPostingsView(set.Inverted)) {
		t.Fatal("loaded postings diverged from the saved set")
	}
	for q := 0; q < 10; q++ {
		query := []table.Value{table.S(fmt.Sprintf("v%d", rng.Intn(20))), table.N(float64(rng.Intn(8)))}
		if a, b := searchValues(loaded.Inverted, query...), searchValues(set.Inverted, query...); !reflect.DeepEqual(a, b) {
			t.Fatalf("loaded search diverged: %v vs %v", a, b)
		}
	}

	// A save at another fan-out into the same directory replaces the file.
	if err := BuildIndexSetSharded(snap, 2).SaveDir(dir); err != nil {
		t.Fatalf("narrower SaveDir: %v", err)
	}
	reloaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatalf("reload after narrower save: %v", err)
	}
	if reloaded.Inverted.Shards() != 2 {
		t.Fatalf("reload has %d shards, want 2", reloaded.Inverted.Shards())
	}
}

// TestShardedPersistCorruption: every way an inverted file on disk can lie
// — truncated, bit-flipped, extended, a posting block or offset forged
// under a valid checksum, a file from another save — fails the load with a
// typed error.
func TestShardedPersistCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	l := randomEquivLake(rng)
	set := BuildIndexSetSharded(l.Snapshot(), 3)
	dir := t.TempDir()
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, invertedFileName)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slabAt := len(valid) - 4 - len(set.Inverted.ps.slab)
	firstBlock := slabAt + int(set.Inverted.ps.off[1])
	for id := 1; set.Inverted.ps.off[id] == set.Inverted.ps.off[id-1]; id++ {
		firstBlock = slabAt + int(set.Inverted.ps.off[id])
	}
	forge := func(at int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[at] = v
		return withChecksum(b)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	// One bit of the first column's table name: structurally still valid,
	// so only the checksum can tell.
	renamed := append([]byte(nil), valid...)
	refs := set.Inverted.ps.refs
	renamed[invertedHeaderLen+uvarintLen(uint64(len(refs)))+uvarintLen(uint64(len(refs[0].Table)))] ^= 0x01
	// The next-to-last offset zeroed: the offsets decrease inside the slab.
	decreasing := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(decreasing[slabAt-8:], 0)
	// A column table cut to one column: postings name columns it lacks.
	short := *set.Inverted.ps
	short.refs = short.refs[:1]
	n, fp := set.Dict.PrefixStamp()
	unknown := appendInverted(nil, &Inverted{ps: &short}, set.Epoch, n, fp)
	// A column that holds a posting marked free: a delta would hand the
	// posting on to the next column added.
	freed := *set.Inverted.ps
	freed.sizes = slices.Clone(freed.sizes)
	freed.sizes[postedColumn(set.Inverted)] = -1
	inFree := appendInverted(nil, &Inverted{ps: &freed}, set.Epoch, n, fp)
	for name, b := range map[string][]byte{
		"truncated":                valid[:len(valid)/2],
		"bit flip":                 flipped,
		"renamed column":           renamed,
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"unknown posting tag":      forge(firstBlock, 0x7f),
		"offset past the slab":     forge(slabAt-1, 0xff),
		"wrong magic":              forge(0, 'X'),
		"older format version":     forge(len(invertedMagic), 4),
		"decreasing offsets":       withChecksum(decreasing),
		"unknown column":           unknown,
		"posting in a free column": inFree,
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("%s: got %v, want ErrCorruptIndex", name, err)
		}
	}

	// A file saved over another lake loads, but does not bind to this one.
	foreign := lake.New()
	ft := table.New("f", "a")
	ft.AddRow(table.S("unrelated"))
	laketest.Add(foreign, ft)
	if err := BuildIndexSetSharded(foreign.Snapshot(), 3).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Bind(l.Snapshot()); !errors.Is(err, lake.ErrDictMismatch) {
		t.Fatalf("foreign dictionary bind = %v, want lake.ErrDictMismatch", err)
	}
}

// postedColumn returns a colID that holds a posting in ix.
func postedColumn(ix *Inverted) uint32 {
	for id := uint32(0); ; id++ {
		if b := ix.ps.block(id); len(b) > 0 {
			last, _ := checkPosting(b)
			return last
		}
	}
}
