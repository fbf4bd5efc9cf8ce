package index

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// randomEquivLake builds a random lake with value overlap across tables and
// mixed kinds (strings, numbers, numeric-text, nulls), so distinct spellings
// of one value must land on one posting list.
func randomEquivLake(rng *rand.Rand) *lake.Lake {
	l := lake.New()
	nTables := 3 + rng.Intn(5)
	for t := 0; t < nTables; t++ {
		nCols := 1 + rng.Intn(4)
		cols := make([]string, nCols)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		tab := table.New(fmt.Sprintf("t%d", t), cols...)
		nRows := 1 + rng.Intn(12)
		for r := 0; r < nRows; r++ {
			row := make([]table.Value, nCols)
			for c := range row {
				switch rng.Intn(6) {
				case 0:
					row[c] = table.Null
				case 1:
					row[c] = table.N(float64(rng.Intn(8)))
				case 2:
					row[c] = table.Parse(fmt.Sprintf("%d.0", rng.Intn(8))) // numeric text
				default:
					row[c] = table.S(fmt.Sprintf("v%d", rng.Intn(20)))
				}
			}
			tab.AddRow(row...)
		}
		laketest.Add(l, tab)
	}
	return l
}

// specOverlaps is the specification the inverted index is checked against:
// the overlap of a query value set with every corpus column, counted
// straight from the tables' canonical column sets — no index, no dictionary
// — and ranked by count, then table name, then column.
func specOverlaps(c *lake.Snapshot, query []table.Value) []Overlap {
	keys := make(map[string]bool)
	for _, v := range query {
		if !v.IsNull() {
			keys[v.Key()] = true
		}
	}
	out := []Overlap{}
	for _, t := range c.Tables() {
		for col := range t.Cols {
			n := 0
			for k := range t.ColumnSet(col) {
				if keys[k] {
					n++
				}
			}
			if n > 0 {
				out = append(out, Overlap{Ref: ColumnRef{Table: t.Name, Col: col}, Count: n,
					Containment: float64(n) / float64(len(keys))})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Ref.Table != out[j].Ref.Table {
			return out[i].Ref.Table < out[j].Ref.Table
		}
		return out[i].Ref.Col < out[j].Ref.Col
	})
	return out
}

// searchValues probes ix the way discovery does: the query's distinct values
// interned through an overlay of the index's dictionary (values the lake has
// never seen get transient IDs), then SearchIDs.
func searchValues(ix *Inverted, query ...table.Value) []Overlap {
	q := table.New("q", "v")
	for _, v := range query {
		q.AddRow(v)
	}
	return ix.SearchIDs(table.InternTable(table.NewOverlay(ix.Dict()), q).ColumnIDs(0))
}

// randomQuery draws values from the alphabets randomEquivLake and
// randomTable use, plus spellings and values no lake holds.
func randomQuery(rng *rand.Rand) []table.Value {
	query := make([]table.Value, 1+rng.Intn(8))
	for i := range query {
		switch rng.Intn(6) {
		case 0:
			query[i] = table.N(float64(rng.Intn(40)))
		case 1:
			query[i] = table.Parse(fmt.Sprintf("%d.0", rng.Intn(40)))
		case 2:
			query[i] = table.S("never-indexed")
		case 3:
			query[i] = table.Null
		default:
			query[i] = table.S(fmt.Sprintf("v%d", rng.Intn(120)))
		}
	}
	return query
}

// checkSpec holds ix to the specification over corpus: coverage, every
// column's distinct count (and no stale column), and the exact ranked
// overlaps of random queries.
func checkSpec(t *testing.T, label string, ix *Inverted, corpus *lake.Snapshot, rng *rand.Rand) {
	t.Helper()
	if !ix.Covers(corpus) {
		t.Fatalf("%s: index does not cover its corpus", label)
	}
	ncols := 0
	for _, tab := range corpus.Tables() {
		for c := range tab.Cols {
			ncols++
			if got, want := ix.ColumnSize(ColumnRef{Table: tab.Name, Col: c}), len(tab.ColumnSet(c)); got != want {
				t.Fatalf("%s: %s column %d has %d distinct values, indexed as %d", label, tab.Name, c, want, got)
			}
		}
	}
	if n := len(sizesView(ix)); n != ncols {
		t.Fatalf("%s: %d columns indexed, corpus has %d", label, n, ncols)
	}
	for q := 0; q < 10; q++ {
		query := randomQuery(rng)
		if got, want := searchValues(ix, query...), specOverlaps(corpus, query); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %v\n got %v\nwant %v", label, query, got, want)
		}
	}
}

// saveLoad round-trips ix through SaveDir/LoadIndexSetDir.
func saveLoad(t *testing.T, ix *Inverted, snap *lake.Snapshot) *Inverted {
	t.Helper()
	dir := t.TempDir()
	if err := (&IndexSet{Inverted: ix, Epoch: snap.Epoch()}).SaveDir(dir); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	loaded, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatalf("LoadIndexSetDir: %v", err)
	}
	return bound(t, loaded, snap).Inverted
}

// checkMaintained holds a maintained index to a fresh build of its snapshot:
// the same postings and column sizes, no column twice in its column table,
// and a column table no longer than the most columns the lake has held.
func checkMaintained(t *testing.T, label string, ix, fresh *Inverted, peak int) {
	t.Helper()
	if !reflect.DeepEqual(flatPostingsView(ix), flatPostingsView(fresh)) {
		t.Fatalf("%s: maintained postings diverge from a fresh build", label)
	}
	if !maps.Equal(sizesView(ix), sizesView(fresh)) {
		t.Fatalf("%s: maintained column sizes diverge from a fresh build", label)
	}
	seen := make(map[ColumnRef]bool, len(ix.ps.refs))
	for _, ref := range ix.ps.refs {
		if seen[ref] {
			t.Fatalf("%s: column %s/%d twice in the column table", label, ref.Table, ref.Col)
		}
		seen[ref] = true
	}
	if len(ix.ps.refs) > peak {
		t.Fatalf("%s: %d colIDs, but the lake never held more than %d columns", label, len(ix.ps.refs), peak)
	}
}

// TestInvertedMatchesSpec is the index's differential test: at every shard
// count the index must equal the brute-force specification when freshly
// built, along a chain of WithDelta maintenance steps (where it must also
// match a fresh build of the same snapshot, see checkMaintained), after a
// delta wider than the whole index, and after a save→load round trip of
// each of those.
func TestInvertedMatchesSpec(t *testing.T) {
	for _, nshards := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("%d shards, seed %d", nshards, seed)
			rng := rand.New(rand.NewSource(seed))
			l := randomEquivLake(rng)
			nextID := 100
			prev := l.Snapshot()
			ix := BuildInvertedSharded(prev, nshards)
			if ix.Shards() != nshards {
				t.Fatalf("%s: Shards() = %d", label, ix.Shards())
			}
			checkSpec(t, label+", fresh", ix, prev, rng)
			checkSpec(t, label+", fresh, loaded", saveLoad(t, ix, prev), prev, rng)

			peak := liveColumns(prev)
			step := func(at string, snap *lake.Snapshot) {
				t.Helper()
				peak = max(peak, liveColumns(snap))
				fresh := BuildInvertedSharded(snap, nshards)
				loaded := saveLoad(t, ix, snap)
				checkSpec(t, at, ix, snap, rng)
				checkSpec(t, at+", loaded", loaded, snap, rng)
				checkMaintained(t, at, ix, fresh, peak)
				checkMaintained(t, at+", loaded", loaded, fresh, peak)
				if ix.Shards() != nshards || loaded.Shards() != nshards {
					t.Fatalf("%s: a delta changed the shard count to %d", at, ix.Shards())
				}
			}
			for i := 0; i < 30; i++ {
				applyRandomMutation(t, rng, l, &nextID)
				snap := l.Snapshot()
				added, removed, ok := lake.Diff(prev, snap)
				if !ok {
					t.Fatal("diff broke within one lineage")
				}
				snap.EnsureInterned()
				ix = ix.WithDelta(forms(snap, added), forms(prev, removed))
				step(fmt.Sprintf("%s, step %d", label, i), snap)
				prev = snap
			}

			// One table with more novel values than the index has IDs.
			wide := table.New("wide", "w")
			for i := 0; i < 2*ix.ps.ids()+64; i++ {
				wide.AddRow(table.S(fmt.Sprintf("novel%d", i)))
			}
			if _, err := l.Apply(context.Background(), lake.Put(wide)); err != nil {
				t.Fatal(err)
			}
			snap := l.Snapshot()
			snap.EnsureInterned()
			ix = ix.WithDelta([]*table.Interned{snap.Interned("wide")}, nil)
			step(label+", wide", snap)
		}
	}
}

// TestMinHashInternedRecall checks the ID-family sketches do the first
// stage's job: a lake table queried as itself lands in the top ranks.
func TestMinHashInternedRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		snap := randomEquivLake(rng).Snapshot()
		ids := BuildMinHashLSH(snap)
		for _, name := range snap.Names() {
			q := snap.Get(name)
			hit := false
			for _, r := range ids.TopK(q, snap.Len()) {
				if r.Table == name {
					hit = true
				}
			}
			if !hit {
				t.Errorf("trial %d: interned LSH missed self-retrieval of %s", trial, name)
			}
		}
	}
}
