package index

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// randomTable builds a table whose values are drawn from a smallish shared
// alphabet, so mutations genuinely overlap postings.
func randomTable(rng *rand.Rand, name string) *table.Table {
	ncols := 1 + rng.Intn(3)
	cols := make([]string, ncols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	t := table.New(name, cols...)
	nrows := 1 + rng.Intn(12)
	for r := 0; r < nrows; r++ {
		row := make([]table.Value, ncols)
		for c := range row {
			switch rng.Intn(10) {
			case 0:
				row[c] = table.Null
			case 1, 2:
				row[c] = table.N(float64(rng.Intn(40)))
			default:
				row[c] = table.S(fmt.Sprintf("v%d", rng.Intn(120)))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// applyRandomMutation mutates the lake one random step (put-new,
// replace-existing, drop, rename) and returns the epoch.
func applyRandomMutation(t *testing.T, rng *rand.Rand, l *lake.Lake, nextID *int) {
	t.Helper()
	names := l.Snapshot().Names()
	var mut lake.Mutation
	switch op := rng.Intn(4); {
	case op == 0 && len(names) > 0: // replace
		mut = lake.Put(randomTable(rng, names[rng.Intn(len(names))]))
	case op == 1 && len(names) > 1: // drop
		mut = lake.Drop(names[rng.Intn(len(names))])
	case op == 2 && len(names) > 0: // rename
		*nextID++
		mut = lake.Rename(names[rng.Intn(len(names))], fmt.Sprintf("rn%d", *nextID))
	default: // put new
		*nextID++
		mut = lake.Put(randomTable(rng, fmt.Sprintf("t%d", *nextID)))
	}
	if _, err := l.Apply(context.Background(), mut); err != nil {
		t.Fatal(err)
	}
}

// flatPostingsView canonicalizes an index's live postings (override layer
// over base) for comparison: per-ID sorted refs, empty entries dropped.
func flatPostingsView(ix *Inverted) map[uint32][]ColumnRef {
	out := make(map[uint32][]ColumnRef)
	put := func(id uint32, refs []ColumnRef) {
		if len(refs) == 0 {
			return
		}
		cp := append([]ColumnRef(nil), refs...)
		sort.Slice(cp, func(i, j int) bool {
			if cp[i].Table != cp[j].Table {
				return cp[i].Table < cp[j].Table
			}
			return cp[i].Col < cp[j].Col
		})
		out[id] = cp
	}
	refsOf := func(cids []uint32) []ColumnRef {
		refs := make([]ColumnRef, len(cids))
		for i, cid := range cids {
			refs[i] = ix.ref(cid)
		}
		return refs
	}
	for id := uint32(0); int(id) < ix.base.ids(); id++ {
		if _, over := ix.idOver[id]; !over {
			put(id, refsOf(ix.base.columnIDs(id)))
		}
	}
	for id, cids := range ix.idOver {
		put(id, refsOf(cids))
	}
	return out
}

func forms(snap *lake.Snapshot, tables []*table.Table) []*table.Interned {
	out := make([]*table.Interned, len(tables))
	for i, tt := range tables {
		out[i] = snap.Interned(tt.Name)
	}
	return out
}

// TestWithDeltaSharesAndPreserves: the inverted index's delta must not mutate
// its receiver, and the base must be shared (no deep copy of the corpus). The
// LSH substrates' counterpart is TestLayeredLSHMatchesRebuild.
func TestWithDeltaSharesAndPreserves(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("stay", "a", "b", "c"))
	laketest.Add(l, mk("gone", "a", "x"))
	snap := l.Snapshot()
	base := BuildInverted(snap)
	baseView := flatPostingsView(base)

	laketest.Remove(l, "gone")
	laketest.Add(l, mk("new", "b", "y"))
	snap2 := l.Snapshot()
	snap2.EnsureInterned()
	derived := base.WithDelta(
		[]*table.Interned{snap2.Interned("new")},
		[]*table.Interned{snap.Interned("gone")},
	)
	if !reflect.DeepEqual(flatPostingsView(base), baseView) {
		t.Fatal("WithDelta mutated its receiver")
	}
	if !reflect.DeepEqual(flatPostingsView(derived), flatPostingsView(BuildInverted(snap2))) {
		t.Fatal("derived index diverges from a fresh build")
	}
	if derived.base != base.base {
		t.Error("a small delta copied the base instead of sharing it")
	}
}

// TestWithDeltaBoundsColumnTable: every delta numbers its added columns past
// the column table, so a churn that keeps replacing one table — re-touching
// the same two IDs, never growing the override layer past its threshold —
// must still compact on the column table's growth, and serve a fresh build's
// postings throughout.
func TestWithDeltaBoundsColumnTable(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("stay", "a", "b", "c"))
	laketest.Add(l, mk("hot", "a", "x"))
	prev := l.Snapshot()
	ix := BuildInverted(prev)
	first := ix.base
	for i := 0; i < 4*overCompactionSlack; i++ {
		laketest.Add(l, mk("hot", "a", fmt.Sprint("x", i%2)))
		snap := l.Snapshot()
		added, removed, ok := lake.Diff(prev, snap)
		if !ok {
			t.Fatal("diff broke within one lineage")
		}
		snap.EnsureInterned()
		ix = ix.WithDelta(forms(snap, added), forms(prev, removed))
		if limit := len(ix.base.refs)/2 + overCompactionSlack; len(ix.extra) > limit {
			t.Fatalf("step %d: %d added columns held past the compaction limit %d", i, len(ix.extra), limit)
		}
		if !reflect.DeepEqual(flatPostingsView(ix), flatPostingsView(BuildInverted(snap))) {
			t.Fatalf("step %d: maintained postings diverge from a fresh build", i)
		}
		prev = snap
	}
	if ix.base == first {
		t.Fatal("the column table grew without bound: no delta compacted")
	}
}

// TestSaveDirClearsStaleEpochStamp: saving an unstamped set over a stamped
// directory must not leave the old stamp to be paired with the fresh
// substrates.
func TestSaveDirClearsStaleEpochStamp(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t", "a"))
	dir := t.TempDir()
	stamped := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	if err := stamped.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	unstamped := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
	unstamped.Epoch = lake.Epoch{}
	if err := unstamped.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Epoch.IsZero() {
		t.Fatalf("stale epoch stamp survived: %v", loaded.Epoch)
	}
}

// TestSaveDirRemovesAbsentSubstrates: files a current save does not write —
// the semantic.bin a hybrid session of the retired semantic channel saved,
// the dict.bin that sat beside a v5 inverted.bin, or the gob files of an
// earlier layout — never stop the directory from loading, and the next save
// removes them. The replaced table reuses existing values, so the
// dictionary — and with it the stamp the file carries — is the same at both
// epochs: nothing at load would refuse a leftover paired with the epoch-n+1
// stamp.
func TestSaveDirRemovesAbsentSubstrates(t *testing.T) {
	for _, leftovers := range [][]string{
		{"semantic.bin"},
		{"dict.bin"},
		{"dict.gob", "epoch.gob", "minhash.gob", "semantic.gob"},
	} {
		l := lake.New()
		laketest.Add(l, mk("t1", "a", "b"))
		laketest.Add(l, mk("t2", "b", "c"))
		dir := t.TempDir()
		if err := BuildIndexSetSharded(l.Snapshot(), DefaultShards).SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, f := range leftovers {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("GVEC an earlier release's file"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := LoadIndexSetDir(dir); err != nil {
			t.Fatalf("%v beside a current save: %v", leftovers, err)
		}
		laketest.Add(l, mk("t1", "c", "a")) // epoch n+1, no new values
		next := BuildIndexSetSharded(l.Snapshot(), DefaultShards)
		if err := next.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, f := range leftovers {
			if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
				t.Fatalf("save left %s behind (stat: %v)", f, err)
			}
		}
		loaded, err := LoadIndexSetDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Inverted == nil || loaded.Epoch != next.Epoch {
			t.Fatalf("%v: reload after the save is not the new set", leftovers)
		}
	}
}

// TestEpochStampRoundTrip: SaveDir persists the epoch stamp and
// LoadIndexSetDir restores it; pre-epoch directories load with a zero
// stamp.
func TestEpochStampRoundTrip(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t", "a", "b"))
	snap := l.Snapshot()
	set := BuildIndexSetSharded(snap, DefaultShards)
	if set.Epoch != snap.Epoch() {
		t.Fatalf("BuildIndexSetSharded stamped %v, want %v", set.Epoch, snap.Epoch())
	}
	dir := t.TempDir()
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch != snap.Epoch() {
		t.Fatalf("loaded epoch %v, want %v", loaded.Epoch, snap.Epoch())
	}
}

func mk(name string, vals ...string) *table.Table {
	t := table.New(name, "a")
	for _, v := range vals {
		t.AddRow(table.S(v))
	}
	return t
}
