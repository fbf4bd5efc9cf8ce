package lake

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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

func addAll(t testing.TB, l *Lake, tables ...*table.Table) {
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
	if !reflect.DeepEqual(got.Dict().Snapshot(), want.Dict().Snapshot()) {
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

// TestOpenRejectsForgedTableShapes: table shapes in the catalog are bytes
// from disk like any others — a duplicate column name or an out-of-range key
// index must fail Open with table.ErrShape instead of opening cleanly and
// panicking inside a later query, and a name used twice with
// ErrCorruptCatalog. The forgeries go through the catalog encoder, so the
// checksum holds and only these checks stand between them and a query. The
// flat format cannot express a ragged row: a short row shifts the cell
// stream, which fails as ErrCorruptCatalog.
func TestOpenRejectsForgedTableShapes(t *testing.T) {
	forgeries := map[string]struct {
		forge func(*table.Table)
		want  error
	}{
		"ragged row":       {func(tb *table.Table) { tb.Rows[1] = tb.Rows[1][:1] }, ErrCorruptCatalog},
		"duplicate column": {func(tb *table.Table) { tb.Cols[1] = tb.Cols[0] }, table.ErrShape},
		"key out of range": {func(tb *table.Table) { tb.Key = []int{len(tb.Cols)} }, table.ErrShape},
		"duplicate name":   {func(tb *table.Table) { tb.Name = "good" }, ErrCorruptCatalog},
	}
	for name, f := range forgeries {
		t.Run(name, func(t *testing.T) {
			l := New()
			addAll(t, l, cacheTestTable("good", 4), cacheTestTable("bad", 4))
			dir := t.TempDir()
			if err := l.Persist(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, catalogFileName)
			c, err := readCatalog(path)
			if err != nil {
				t.Fatal(err)
			}
			f.forge(c.tables[1])
			b, err := appendCatalog(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); !errors.Is(err, f.want) {
				t.Fatalf("Open = %v, want %v", err, f.want)
			}
		})
	}
}

// TestConcurrentPagedLoads: goroutines page the forms of a persisted lake in
// under a budget of a quarter of its footprint. Segment loads run outside
// the cache lock, and on every other round all goroutines ask for the same
// table at once. Every form must equal the fully resident one, and the
// counters must add up: every call is a hit or a miss, and every miss of an
// evicted form is exactly one segment load.
func TestConcurrentPagedLoads(t *testing.T) {
	src := New()
	var tabs []*table.Table
	for i := 0; i < 24; i++ {
		tabs = append(tabs, cacheTestTable(fmt.Sprintf("t%d", i), 40))
	}
	addAll(t, src, tabs...)
	dir := t.TempDir()
	if err := src.Persist(dir); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*table.Interned, len(tabs))
	for _, tab := range tabs {
		want[tab.Name] = ref.Snapshot().Interned(tab.Name)
	}
	footprint := ref.CacheStats().ResidentBytes

	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResidentBudget(footprint / 4)
	snap := l.Snapshot()
	const workers, rounds = 8, 60
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				name := tabs[r%len(tabs)].Name
				if r%2 == 1 {
					name = tabs[(r*7+w)%len(tabs)].Name
				}
				got, exp := snap.Interned(name), want[name]
				same := reflect.DeepEqual(got.Cols, exp.Cols)
				for c := range exp.Table.Cols {
					same = same && reflect.DeepEqual(got.ColumnIDs(c), exp.ColumnIDs(c))
				}
				if !same {
					t.Errorf("worker %d round %d: paged form of %s diverged from the resident one", w, r, name)
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	st := l.CacheStats()
	if st.Hits+st.Misses != workers*rounds {
		t.Errorf("hits %d + misses %d != %d calls", st.Hits, st.Misses, workers*rounds)
	}
	if st.Loads+st.Reinterns != st.Misses || st.Reinterns != 0 {
		t.Errorf("loads %d + reinterns %d != misses %d (every miss should load its segment)",
			st.Loads, st.Reinterns, st.Misses)
	}
	if st.Loads == 0 || st.Evictions == 0 {
		t.Errorf("the budget never paged: %+v", st)
	}
	if st.Resident > 1 && st.ResidentBytes > st.Budget {
		t.Errorf("resident %d bytes over the %d-byte budget", st.ResidentBytes, st.Budget)
	}
}
