package index

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// TestShardedCompaction forces the override layer past the compaction
// threshold in one delta: the derived index must flatten back to a pure base
// (no override layer), hold the postings of a fresh build, and leave the
// receiver's base untouched.
func TestShardedCompaction(t *testing.T) {
	l := lake.New()
	seedTab := table.New("seed", "a")
	seedTab.AddRow(table.S("anchor"))
	laketest.Add(l, seedTab)
	snap := l.Snapshot()
	base := BuildInvertedSharded(snap, 4)
	if n := base.base.nlists; n >= 10 {
		t.Fatalf("seed base unexpectedly large: %d lists", n)
	}

	// One added table with far more novel values than baseLen/2 + slack.
	wide := table.New("wide", "w")
	wide.AddRow(table.S("anchor"))
	for i := 0; i < 200; i++ {
		wide.AddRow(table.S(fmt.Sprintf("novel%d", i)))
	}
	if _, err := l.Apply(context.Background(), lake.Put(wide)); err != nil {
		t.Fatal(err)
	}
	snap2 := l.Snapshot()
	snap2.EnsureInterned()
	derived := base.WithDelta([]*table.Interned{snap2.Interned("wide")}, nil)
	if derived.idOver != nil {
		t.Fatalf("delta of %d novel IDs over a %d-list base did not compact",
			201, base.base.nlists)
	}
	if derived.base == base.base {
		t.Fatal("compaction mutated the shared base instead of copying")
	}
	if base.base.nlists != 1 {
		t.Fatalf("receiver base changed: %d lists", base.base.nlists)
	}
	fresh := BuildInvertedSharded(snap2, 4)
	if !reflect.DeepEqual(flatPostingsView(derived), flatPostingsView(fresh)) {
		t.Fatal("compacted postings diverge from a fresh build")
	}
}

// TestShardedIndexSetRoundTrip persists a set built at fan-out 4 and loads
// it back: one inverted file on disk, the fan-out width kept, identical
// postings and search results, and a loaded set that still catches up
// incrementally over its base.
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

	// The loaded set must catch up incrementally.
	l2 := lake.New()
	if err := l2.AdoptDict(loaded.Dict); err != nil {
		t.Fatal(err)
	}
	for _, name := range snap.Names() {
		laketest.Add(l2, snap.Get(name).Clone())
	}
	extra := table.New("extra", "z")
	extra.AddRow(table.S("v1"))
	extra.AddRow(table.S("brand-new-value"))
	laketest.Add(l2, extra)
	snap2 := l2.Snapshot()
	added, ok := loaded.CatchUp(snap2)
	if !ok || added != 1 {
		t.Fatalf("CatchUp = (%d, %v), want (1, true)", added, ok)
	}
	fresh := BuildInvertedSharded(snap2, 4)
	if !reflect.DeepEqual(flatPostingsView(loaded.Inverted), flatPostingsView(fresh)) {
		t.Fatal("caught-up postings diverge from a fresh build")
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
	slabAt := len(valid) - 4 - len(set.Inverted.base.slab)
	firstBlock := slabAt + int(set.Inverted.base.off[1])
	for id := 1; set.Inverted.base.off[id] == set.Inverted.base.off[id-1]; id++ {
		firstBlock = slabAt + int(set.Inverted.base.off[id])
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
	refs := set.Inverted.base.refs
	renamed[invertedHeaderLen+uvarintLen(uint64(len(refs)))+uvarintLen(uint64(len(refs[0].Table)))] ^= 0x01
	// The next-to-last offset zeroed: the offsets decrease inside the slab.
	decreasing := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(decreasing[slabAt-8:], 0)
	// A column table cut to one column: postings name columns it lacks.
	short := *set.Inverted.base
	short.refs = short.refs[:1]
	unknown := appendInverted(nil, &Inverted{base: &short}, set.Dict.Fingerprint())
	for name, b := range map[string][]byte{
		"truncated":            valid[:len(valid)/2],
		"bit flip":             flipped,
		"renamed column":       renamed,
		"trailing byte":        append(append([]byte(nil), valid...), 0),
		"unknown posting tag":  forge(firstBlock, 0x7f),
		"offset past the slab": forge(slabAt-1, 0xff),
		"wrong magic":          forge(0, 'X'),
		"older format version": forge(len(invertedMagic), 4),
		"decreasing offsets":   withChecksum(decreasing),
		"unknown column":       unknown,
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("%s: got %v, want ErrCorruptIndex", name, err)
		}
	}

	// A dictionary that diverged from the saved one must be rejected.
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	foreign := lake.New()
	ft := table.New("f", "a")
	ft.AddRow(table.S("unrelated"))
	laketest.Add(foreign, ft)
	fset := BuildIndexSetSharded(foreign.Snapshot(), 3)
	fdir := t.TempDir()
	if err := fset.SaveDir(fdir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(fdir, dictFileName), filepath.Join(dir, dictFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSetDir(dir); !errors.Is(err, ErrDictFingerprint) {
		t.Fatalf("foreign dictionary load = %v, want ErrDictFingerprint", err)
	}
}
