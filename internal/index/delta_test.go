package index

import (
	"context"
	"fmt"
	"math/rand"
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
	for id := uint32(0); int(id) < ix.base.ids(); id++ {
		if _, over := ix.idOver[id]; !over {
			put(id, ix.base.materialize(id))
		}
	}
	for id, refs := range ix.idOver {
		put(id, refs)
	}
	return out
}

// liveSigsView is a MinHash index's live column sketches.
func liveSigsView(ix *MinHashLSH) map[ColumnRef]signature {
	return ix.flattened().base
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

// TestGapAndCatchUp: a set persisted before the lake grew is caught up
// add-only; schema changes make the gap non-add-only.
func TestGapAndCatchUp(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t1", "a", "b"))
	laketest.Add(l, mk("t2", "b", "c"))
	set := BuildIndexSet(l.Snapshot())

	// Lake grows by one table with novel values.
	laketest.Add(l, mk("t3", "c", "zzz"))
	snap := l.Snapshot()
	covered, missing, ok := set.Gap(snap)
	if !ok {
		t.Fatal("add-only gap reported non-add-only")
	}
	if !reflect.DeepEqual(covered, []string{"t1", "t2"}) || !reflect.DeepEqual(missing, []string{"t3"}) {
		t.Fatalf("gap = %v / %v", covered, missing)
	}
	added, ok := set.CatchUp(snap)
	if !ok || added != 1 {
		t.Fatalf("CatchUp = %d, %v", added, ok)
	}
	if set.Epoch != snap.Epoch() {
		t.Fatalf("CatchUp stamped %v, want %v", set.Epoch, snap.Epoch())
	}
	if !set.Inverted.Covers(snap) || !set.LSH.Covers(snap) {
		t.Fatal("caught-up set does not cover the lake")
	}
	fresh := BuildIndexSet(snap)
	if !reflect.DeepEqual(flatPostingsView(set.Inverted), flatPostingsView(fresh.Inverted)) {
		t.Fatal("caught-up postings diverge from a fresh build")
	}
	if !reflect.DeepEqual(liveSigsView(set.LSH), liveSigsView(fresh.LSH)) {
		t.Fatal("caught-up sketches diverge from a fresh build")
	}

	// A schema change under a kept name is not add-only.
	l2 := lake.New()
	laketest.Add(l2, mk("t1", "a"))
	set2 := BuildIndexSet(l2.Snapshot())
	wider := table.New("t1", "a", "extra")
	wider.AddRow(table.S("a"), table.S("e"))
	laketest.Add(l2, wider)
	if _, _, ok := set2.Gap(l2.Snapshot()); ok {
		t.Fatal("schema change reported add-only")
	}
	if _, ok := set2.CatchUp(l2.Snapshot()); ok {
		t.Fatal("CatchUp applied across a schema change")
	}
}

// TestCatchUpRefusesEditedCoveredTable: a covered table whose contents
// changed since the save — even an edit that reuses values already in the
// persisted dictionary and preserves distinct counts — must fail the
// catch-up (its postings are stale), not be served and re-stamped as
// current.
func TestCatchUpRefusesEditedCoveredTable(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("edited", "a", "b"))
	laketest.Add(l, mk("other", "b", "c"))
	set := BuildIndexSet(l.Snapshot())

	// Edit "edited" in place: swap a -> c. Every value is already in the
	// persisted dictionary and the distinct count is unchanged, so neither
	// the dictionary nor the schema can see it. The lake also grows, making
	// the gap otherwise add-only.
	laketest.Add(l, mk("edited", "c", "b"))
	laketest.Add(l, mk("brand_new", "c"))
	snap := l.Snapshot()
	if _, _, ok := set.Gap(snap); !ok {
		t.Fatal("gap should look add-only at the schema level")
	}
	if _, ok := set.CatchUp(snap); ok {
		t.Fatal("CatchUp accepted a covered table with stale postings")
	}

	// Sanity: without the edit, the same growth catches up fine.
	l2 := lake.New()
	laketest.Add(l2, mk("edited", "a", "b"))
	laketest.Add(l2, mk("other", "b", "c"))
	set2 := BuildIndexSet(l2.Snapshot())
	laketest.Add(l2, mk("brand_new", "c"))
	if added, ok := set2.CatchUp(l2.Snapshot()); !ok || added != 1 {
		t.Fatalf("clean add-only catch-up = %d, %v", added, ok)
	}
}

// TestSaveDirClearsStaleEpochStamp: saving an unstamped set over a stamped
// directory must not leave the old epoch.gob to be paired with the fresh
// substrates.
func TestSaveDirClearsStaleEpochStamp(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t", "a"))
	dir := t.TempDir()
	stamped := BuildIndexSet(l.Snapshot())
	if err := stamped.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	unstamped := BuildIndexSet(l.Snapshot())
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

// TestSaveDirRemovesAbsentSubstrates: a partial save over a fuller directory
// must not leave the older substrate files behind. The replaced table reuses
// existing values, so the dictionary — and with it the fingerprint every file
// is stamped with — is the same at both epochs: nothing at load would refuse
// epoch-n postings (or sketches) paired with the epoch-n+1 stamp.
func TestSaveDirRemovesAbsentSubstrates(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t1", "a", "b"))
	laketest.Add(l, mk("t2", "b", "c"))
	dir := t.TempDir()
	if err := BuildIndexSet(l.Snapshot()).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	laketest.Add(l, mk("t1", "c", "a")) // epoch n+1, no new values
	next := BuildIndexSet(l.Snapshot())

	lshOnly := &IndexSet{LSH: next.LSH, Dict: next.Dict, Epoch: next.Epoch}
	if err := lshOnly.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Inverted != nil {
		t.Fatal("stale inverted shards survived an LSH-only save under the new stamp")
	}
	if loaded.LSH == nil || loaded.Epoch != next.Epoch {
		t.Fatalf("LSH-only save did not round-trip: %+v", loaded)
	}

	invOnly := &IndexSet{Inverted: next.Inverted, Dict: next.Dict, Epoch: next.Epoch}
	if err := invOnly.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadIndexSetDir(dir); err != nil {
		t.Fatal(err)
	}
	if loaded.LSH != nil || loaded.Inverted == nil {
		t.Fatal("stale minhash file survived an inverted-only save")
	}
}

// TestEpochStampRoundTrip: SaveDir persists the epoch stamp and
// LoadIndexSetDir restores it; pre-epoch directories load with a zero
// stamp.
func TestEpochStampRoundTrip(t *testing.T) {
	l := lake.New()
	laketest.Add(l, mk("t", "a", "b"))
	snap := l.Snapshot()
	set := BuildIndexSet(snap)
	if set.Epoch != snap.Epoch() {
		t.Fatalf("BuildIndexSet stamped %v, want %v", set.Epoch, snap.Epoch())
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
