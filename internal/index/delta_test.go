package index

import (
	"context"
	"encoding/binary"
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

// flatPostingsView canonicalizes an index's postings for comparison: per-ID
// refs sorted by table and column, empty lists dropped.
func flatPostingsView(ix *Inverted) map[uint32][]ColumnRef {
	out := make(map[uint32][]ColumnRef)
	ps := ix.ps
	for id := uint32(0); int(id) < ps.ids(); id++ {
		var refs []ColumnRef
		forEachPosting(ps.block(id), func(cid uint32) { refs = append(refs, ps.refs[cid]) })
		if len(refs) == 0 {
			continue
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].Table != refs[j].Table {
				return refs[i].Table < refs[j].Table
			}
			return refs[i].Col < refs[j].Col
		})
		out[id] = refs
	}
	return out
}

// sizesView is an index's distinct-value count of every column it holds.
func sizesView(ix *Inverted) map[ColumnRef]int {
	out := make(map[ColumnRef]int)
	for cid, ref := range ix.ps.refs {
		if n := ix.ps.sizes[cid]; n >= 0 {
			out[ref] = n
		}
	}
	return out
}

// liveColumns counts a snapshot's columns.
func liveColumns(snap *lake.Snapshot) int {
	n := 0
	for _, t := range snap.Tables() {
		n += len(t.Cols)
	}
	return n
}

func forms(snap *lake.Snapshot, tables []*table.Table) []*table.Interned {
	out := make([]*table.Interned, len(tables))
	for i, tt := range tables {
		out[i] = snap.Interned(tt.Name)
	}
	return out
}

// TestWithDeltaSharesAndPreserves: the inverted index's delta must not mutate
// its receiver. The LSH substrates' counterpart is
// TestLayeredLSHMatchesRebuild.
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
}

// TestWithDeltaBoundsColumnTable: a churn that keeps moving one table to a
// new name must not grow the column table, in memory or in the saved file:
// with two columns live at every epoch, a removed column's colID is taken by
// the next added one, so the file holds two columns throughout, and the
// index a fresh build's postings.
func TestWithDeltaBoundsColumnTable(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("stay", "a", "b", "c"))
	laketest.Add(l, mk("hot0", "a", "x"))
	prev := l.Snapshot()
	ix := BuildInverted(prev)
	for i := 1; i <= 400; i++ {
		if _, err := l.Apply(context.Background(), lake.Drop(fmt.Sprint("hot", i-1)),
			lake.Put(mk(fmt.Sprint("hot", i), "a", fmt.Sprint("x", i%2)))); err != nil {
			t.Fatal(err)
		}
		snap := l.Snapshot()
		added, removed, ok := lake.Diff(prev, snap)
		if !ok {
			t.Fatal("diff broke within one lineage")
		}
		snap.EnsureInterned()
		ix = ix.WithDelta(forms(snap, added), forms(prev, removed))
		n, fp := snap.Dict().PrefixStamp()
		file := appendInverted(nil, ix, snap.Epoch(), n, fp)
		if nrefs, _ := binary.Uvarint(file[invertedHeaderLen:]); nrefs != 2 {
			t.Fatalf("step %d: the file holds %d columns, the lake 2", i, nrefs)
		}
		if !reflect.DeepEqual(flatPostingsView(ix), flatPostingsView(BuildInverted(snap))) {
			t.Fatalf("step %d: maintained postings diverge from a fresh build", i)
		}
		prev = snap
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
