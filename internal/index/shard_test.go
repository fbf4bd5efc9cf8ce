package index

import (
	"context"
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
	want := specOverlaps(l, query)
	for _, nshards := range []int{1, 4} {
		if got := searchValues(BuildInvertedSharded(l, nshards), query...); !reflect.DeepEqual(got, want) {
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

// TestShardedIndexSetRoundTrip persists a sharded set and loads it back:
// per-shard files on disk, identical search results, and a loaded set that
// still catches up incrementally over a sharded base.
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
	if !fileExists(filepath.Join(dir, shardMetaFileName)) {
		t.Fatal("save left no shard meta")
	}
	for s := 0; s < 4; s++ {
		if !fileExists(filepath.Join(dir, fmt.Sprintf(shardFilePattern, s))) {
			t.Fatalf("shard file %d missing", s)
		}
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

	// A save with fewer shards into the same directory leaves no shard file
	// of the wider set behind.
	if err := BuildIndexSetSharded(snap, 2).SaveDir(dir); err != nil {
		t.Fatalf("narrower SaveDir: %v", err)
	}
	if fileExists(filepath.Join(dir, fmt.Sprintf(shardFilePattern, 2))) {
		t.Fatal("narrower save left a stale shard file behind")
	}
	reloaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatalf("reload after narrower save: %v", err)
	}
	if reloaded.Inverted.Shards() != 2 {
		t.Fatalf("reload has %d shards, want 2", reloaded.Inverted.Shards())
	}
}

// TestShardedPersistCorruption: every way a sharded set on disk can lie —
// corrupt shard bytes, a shard from another save, invalid posting blocks,
// misrouted IDs, a missing shard — fails the load with a clean error.
func TestShardedPersistCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	l := randomEquivLake(rng)
	set := BuildIndexSetSharded(l.Snapshot(), 3)
	dir := t.TempDir()
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	shard0 := filepath.Join(dir, fmt.Sprintf(shardFilePattern, 0))

	corrupt := func(t *testing.T, mutate func() error) error {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		_, err := LoadIndexSetDir(dir)
		if err == nil {
			t.Fatal("load of tampered set succeeded")
		}
		if err := set.SaveDir(dir); err != nil { // restore for the next case
			t.Fatal(err)
		}
		return err
	}

	corrupt(t, func() error { // truncated shard gob
		raw, err := os.ReadFile(shard0)
		if err != nil {
			return err
		}
		return os.WriteFile(shard0, raw[:len(raw)/2], 0o644)
	})
	corrupt(t, func() error { // missing shard file
		return os.Remove(shard0)
	})
	err := corrupt(t, func() error { // shard index/meta mismatch
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(shardFilePattern, 1)))
		if err != nil {
			return err
		}
		return os.WriteFile(shard0, raw, 0o644)
	})
	if err == nil || errors.Is(err, ErrDictFingerprint) {
		t.Fatalf("misfiled shard reported %v, want a shard-identity error", err)
	}

	// A dictionary that diverged from the saved one must be rejected.
	foreign := lake.New()
	ft := table.New("f", "a")
	ft.AddRow(table.S("unrelated"))
	laketest.Add(foreign, ft)
	fset := BuildIndexSetSharded(foreign.Snapshot(), 3)
	if err := os.Rename(filepath.Join(dir, dictFileName), filepath.Join(dir, "dict.bak")); err != nil {
		t.Fatal(err)
	}
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
