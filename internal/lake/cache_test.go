package lake

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gent/internal/table"
)

func cacheTestTable(name string, rows int) *table.Table {
	t := table.New(name, "k", "v")
	for i := 0; i < rows; i++ {
		t.AddRow(table.S(fmt.Sprintf("%s-key%d", name, i)), table.N(float64(i%10)))
	}
	return t
}

func addAll(t *testing.T, l *Lake, tables ...*table.Table) {
	t.Helper()
	muts := make([]Mutation, len(tables))
	for i, tab := range tables {
		muts[i] = Put(tab)
	}
	if _, err := l.Apply(context.Background(), muts...); err != nil {
		t.Fatal(err)
	}
}

// sameForm pins two interned forms of the same table to each other: same
// cell IDs, same distinct sets. This is the bit-identity eviction must
// preserve.
func sameForm(t *testing.T, a, b *table.Interned) {
	t.Helper()
	if !reflect.DeepEqual(a.Cols, b.Cols) {
		t.Fatalf("interned cells diverged:\n%v\n%v", a.Cols, b.Cols)
	}
	for c := range a.Table.Cols {
		if !reflect.DeepEqual(a.ColumnIDs(c), b.ColumnIDs(c)) {
			t.Fatalf("column %d ID set diverged", c)
		}
	}
}

// TestResidentBudgetEvictsAndReloads drives a budgeted, store-backed cache:
// forms spill under pressure and reload from segments with exactly the IDs
// the evicted forms had.
func TestResidentBudgetEvictsAndReloads(t *testing.T) {
	ref := New() // unbudgeted reference lake with identical content
	l := New()
	st, err := table.NewSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l.SetSegmentStore(st)

	var tabs []*table.Table
	for i := 0; i < 12; i++ {
		tabs = append(tabs, cacheTestTable(fmt.Sprintf("t%d", i), 50))
	}
	addAll(t, l, tabs...)
	refTabs := make([]*table.Table, len(tabs))
	for i, tab := range tabs {
		refTabs[i] = tab.Clone()
	}
	addAll(t, ref, refTabs...)

	l.EnsureInterned()
	full := l.CacheStats()
	if full.Resident != 12 || full.ResidentBytes <= 0 {
		t.Fatalf("unbudgeted cache: %+v", full)
	}
	// Budget for roughly a third of the corpus.
	l.SetResidentBudget(full.ResidentBytes / 3)
	stats := l.CacheStats()
	if stats.Evictions == 0 || stats.Resident >= 12 {
		t.Fatalf("budget did not evict: %+v", stats)
	}
	if stats.Spills != stats.Evictions {
		t.Fatalf("store-backed eviction must spill every victim: %+v", stats)
	}
	if stats.ResidentBytes > stats.Budget {
		t.Fatalf("resident bytes %d over budget %d", stats.ResidentBytes, stats.Budget)
	}

	// Every form — resident or evicted — must match the unbudgeted lake's.
	for i, tab := range tabs {
		sameForm(t, l.Snapshot().Interned(tab.Name), ref.Snapshot().Interned(refTabs[i].Name))
	}
	stats = l.CacheStats()
	if stats.Loads == 0 {
		t.Fatalf("no segment loads despite evictions: %+v", stats)
	}
	if stats.Reinterns != 0 {
		t.Fatalf("store-backed cache re-interned instead of loading: %+v", stats)
	}

	// Removing the cap lets the full set become resident again.
	l.SetResidentBudget(0)
	l.EnsureInterned()
	for _, tab := range tabs {
		l.Snapshot().Interned(tab.Name)
	}
	if got := l.CacheStats().Resident; got != 12 {
		t.Fatalf("uncapped cache holds %d forms, want 12", got)
	}
}

// TestEvictionWithoutStoreReinterns: with no disk tier, eviction drops forms
// and misses re-intern — same IDs, only slower.
func TestEvictionWithoutStoreReinterns(t *testing.T) {
	l := New()
	var tabs []*table.Table
	for i := 0; i < 6; i++ {
		tabs = append(tabs, cacheTestTable(fmt.Sprintf("t%d", i), 40))
	}
	addAll(t, l, tabs...)
	l.EnsureInterned()
	before := make([]*table.Interned, len(tabs))
	for i, tab := range tabs {
		before[i] = l.Snapshot().Interned(tab.Name)
	}
	l.SetResidentBudget(l.CacheStats().ResidentBytes / 3)
	if s := l.CacheStats(); s.Evictions == 0 || s.Spills != 0 {
		t.Fatalf("expected storeless evictions: %+v", s)
	}
	for i, tab := range tabs {
		sameForm(t, l.Snapshot().Interned(tab.Name), before[i])
	}
	if s := l.CacheStats(); s.Reinterns == 0 || s.Loads != 0 {
		t.Fatalf("expected re-interns, no loads: %+v", s)
	}
}

// TestBudgetedEnsureDoesNotThrash: EnsureInterned on a lake whose forms were
// interned once and evicted must not re-intern the world — bulk ensure only
// interns never-interned tables.
func TestBudgetedEnsureDoesNotThrash(t *testing.T) {
	l := New()
	var tabs []*table.Table
	for i := 0; i < 8; i++ {
		tabs = append(tabs, cacheTestTable(fmt.Sprintf("t%d", i), 40))
	}
	addAll(t, l, tabs...)
	l.EnsureInterned()
	l.SetResidentBudget(l.CacheStats().ResidentBytes / 4)
	evicted := l.CacheStats().Evictions
	l.EnsureInterned() // must be a no-op: everything was interned already
	s := l.CacheStats()
	if s.Evictions != evicted || s.Reinterns != 0 {
		t.Fatalf("EnsureInterned thrashed the budgeted cache: %+v", s)
	}
}

// TestPersistOpenRoundTrip: a persisted lake re-opens with the same epoch,
// catalog, dictionary lineage and interned forms — the forms coming off
// segment files, not re-interning.
func TestPersistOpenRoundTrip(t *testing.T) {
	l := New()
	var tabs []*table.Table
	for i := 0; i < 5; i++ {
		tabs = append(tabs, cacheTestTable(fmt.Sprintf("t%d", i), 30))
	}
	addAll(t, l, tabs...)
	if _, err := l.Apply(context.Background(), Drop("t3"), Rename("t4", "renamed")); err != nil {
		t.Fatal(err)
	}
	l.EnsureInterned()

	dir := t.TempDir()
	if err := l.Persist(dir); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	ol, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if ol.Epoch() != l.Epoch() {
		t.Fatalf("epoch: got %v, want %v", ol.Epoch(), l.Epoch())
	}
	got, want := ol.Snapshot(), l.Snapshot()
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("names: got %v, want %v", got.Names(), want.Names())
	}
	if got.Dict().Fingerprint() != want.Dict().Fingerprint() {
		t.Fatal("dictionary lineage not restored")
	}
	for _, n := range want.Names() {
		if !reflect.DeepEqual(got.Get(n), want.Get(n)) {
			t.Fatalf("table %s did not round-trip", n)
		}
		sameForm(t, got.Interned(n), want.Interned(n))
	}
	s := ol.CacheStats()
	if s.Loads != uint64(want.Len()) || s.Reinterns != 0 {
		t.Fatalf("opened lake should serve forms from segments: %+v", s)
	}

	// The opened lake keeps versioning from the restored epoch.
	seq := ol.Epoch().Seq
	addAll(t, ol, cacheTestTable("after", 5))
	if ol.Epoch().Seq != seq+1 {
		t.Fatalf("epoch did not advance from the restored sequence")
	}
}

// TestOpenMissingSegmentFallsBack: a lake whose segment file vanished still
// opens and serves the table by re-interning — the catalog is authoritative,
// segments are an accelerator.
func TestOpenMissingSegmentFallsBack(t *testing.T) {
	l := New()
	addAll(t, l, cacheTestTable("a", 10), cacheTestTable("b", 10))
	dir := t.TempDir()
	if err := l.Persist(dir); err != nil {
		t.Fatal(err)
	}
	st, err := table.NewSegmentStore(filepath.Join(dir, segmentsDirName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.SegmentPath("a")); err != nil {
		t.Fatal(err)
	}
	ol, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameForm(t, ol.Snapshot().Interned("a"), l.Snapshot().Interned("a"))
	if s := ol.CacheStats(); s.Reinterns != 1 {
		t.Fatalf("missing segment should re-intern exactly once: %+v", s)
	}
}

// TestOpenRejectsForgedTableShapes: table shapes in catalog.gob are bytes
// from disk like any others — a ragged row, a duplicate column name or an
// out-of-range key index must fail Open with table.ErrShape instead of
// opening cleanly and panicking inside a later query.
func TestOpenRejectsForgedTableShapes(t *testing.T) {
	forgeries := map[string]func(*table.Table){
		"ragged row":       func(tb *table.Table) { tb.Rows[1] = tb.Rows[1][:1] },
		"duplicate column": func(tb *table.Table) { tb.Cols[1] = tb.Cols[0] },
		"key out of range": func(tb *table.Table) { tb.Key = []int{len(tb.Cols)} },
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			l := New()
			addAll(t, l, cacheTestTable("good", 4), cacheTestTable("bad", 4))
			dir := t.TempDir()
			if err := l.Persist(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, catalogFileName)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var d catalogDisk
			err = gob.NewDecoder(f).Decode(&d)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			forge(d.Tables[1])
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(d); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); !errors.Is(err, table.ErrShape) {
				t.Fatalf("Open = %v, want table.ErrShape", err)
			}
		})
	}
}
