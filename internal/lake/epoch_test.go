package lake

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gent/internal/table"
)

func mkTable(name string, vals ...string) *table.Table {
	t := table.New(name, "a", "b")
	for i, v := range vals {
		t.AddRow(table.S(v), table.N(float64(i)))
	}
	return t
}

// TestApplyLifecycle walks Put/Drop/Rename through epochs and checks the
// catalog, epoch monotonicity and snapshot immutability at each step.
func TestApplyLifecycle(t *testing.T) {
	ctx := context.Background()
	l := New()
	if !l.Epoch().IsZero() {
		t.Fatalf("fresh lake at %v, want zero epoch", l.Epoch())
	}

	e1, err := l.Apply(ctx, Put(mkTable("t1", "x", "y")), Put(mkTable("t2", "y", "z")))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Seq != 1 || e1 != l.Epoch() {
		t.Fatalf("epoch after first Apply = %v (lake at %v)", e1, l.Epoch())
	}
	s1 := l.Snapshot()
	if got := s1.Names(); !reflect.DeepEqual(got, []string{"t1", "t2"}) {
		t.Fatalf("names = %v", got)
	}

	e2, err := l.Apply(ctx, Drop("t1"), Put(mkTable("t3", "q")), Rename("t2", "t2renamed"))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Seq != 2 || e2.Chain == e1.Chain {
		t.Fatalf("epoch after second Apply = %v (prev %v)", e2, e1)
	}
	// The pinned snapshot still sees the old world.
	if s1.Get("t1") == nil || s1.Get("t3") != nil || s1.Get("t2renamed") != nil {
		t.Fatal("pinned snapshot saw the mutation")
	}
	s2 := l.Snapshot()
	if s2.Get("t1") != nil || s2.Get("t2") != nil {
		t.Fatal("drop/rename not applied")
	}
	rn := s2.Get("t2renamed")
	if rn == nil || rn.Name != "t2renamed" {
		t.Fatalf("renamed table = %+v", rn)
	}
	// Rename is a shallow copy: rows shared with the pinned original.
	if &rn.Rows[0] == nil || &s1.Get("t2").Rows[0][0] != &rn.Rows[0][0] {
		t.Fatal("rename copied rows instead of sharing them")
	}

	// Dropping an absent name is a true no-op: no new epoch.
	e3, err := l.Apply(ctx, Drop("never-there"))
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e2 || l.Epoch() != e2 {
		t.Fatalf("no-op drop moved the epoch: %v -> %v", e2, e3)
	}
	// But alongside an effective mutation the batch still lands as one epoch.
	e4, err := l.Apply(ctx, Drop("never-there"), Put(mkTable("t4", "w")))
	if err != nil {
		t.Fatal(err)
	}
	if e4.Seq != e2.Seq+1 {
		t.Fatalf("epoch = %v", e4)
	}
	// An ineffective drop must not perturb the chain: the same effective
	// history built elsewhere converges to the same epoch.
	l2 := New()
	if _, err := l2.Apply(ctx, Put(mkTable("t1", "x", "y")), Put(mkTable("t2", "y", "z"))); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Apply(ctx, Drop("t1"), Put(mkTable("t3", "q")), Rename("t2", "t2renamed")); err != nil {
		t.Fatal(err)
	}
	e4b, err := l2.Apply(ctx, Put(mkTable("t4", "w")))
	if err != nil {
		t.Fatal(err)
	}
	if e4b != e4 {
		t.Fatalf("ineffective drop perturbed the chain: %v vs %v", e4, e4b)
	}
	// Rename re-registers under the new name (drop + put), so the renamed
	// table moves to the end of insertion order.
	if got := l.Snapshot().Names(); !reflect.DeepEqual(got, []string{"t3", "t2renamed", "t4"}) {
		t.Fatalf("final names = %v", got)
	}
}

// TestApplyRejectsBadBatches: invalid batches fail atomically with
// ErrBadMutation, leaving the lake at its current epoch.
func TestApplyRejectsBadBatches(t *testing.T) {
	ctx := context.Background()
	l := New()
	if _, err := l.Apply(ctx, Put(mkTable("keep", "v"))); err != nil {
		t.Fatal(err)
	}
	before := l.Epoch()
	cases := [][]Mutation{
		{Put(nil)},
		{Put(table.New("", "a"))},
		{Drop("")},
		{Rename("", "x")},
		{Rename("keep", "")},
		{Put(mkTable("new", "v")), Rename("absent", "elsewhere")},
		{{}}, // zero Mutation
	}
	for i, muts := range cases {
		if _, err := l.Apply(ctx, muts...); !errors.Is(err, ErrBadMutation) {
			t.Errorf("case %d: err = %v, want ErrBadMutation", i, err)
		}
	}
	if l.Epoch() != before {
		t.Fatalf("failed batches moved the epoch: %v -> %v", before, l.Epoch())
	}
	if l.Snapshot().Get("new") != nil {
		t.Fatal("half of a failed batch was applied")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Apply(canceled, Put(mkTable("ctx", "v"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Apply: %v", err)
	}
}

// TestEpochChainDeterminism: equal mutation histories produce equal epochs;
// diverging content produces diverging chains even at equal Seq.
func TestEpochChainDeterminism(t *testing.T) {
	ctx := context.Background()
	build := func(rows ...string) Epoch {
		l := New()
		e, err := l.Apply(ctx, Put(mkTable("t", rows...)), Put(mkTable("u", "a")))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if a, b := build("x", "y"), build("x", "y"); a != b {
		t.Fatalf("same history, different epochs: %v vs %v", a, b)
	}
	if a, b := build("x", "y"), build("x", "z"); a == b {
		t.Fatalf("different content, equal epochs: %v", a)
	}
}

// TestRenameSharesInternedForm: a rename republishes the cached interned
// form under the new table without re-interning, and the dictionary does
// not grow.
func TestRenameSharesInternedForm(t *testing.T) {
	ctx := context.Background()
	l := New()
	if _, err := l.Apply(ctx, Put(mkTable("old", "x", "y", "z"))); err != nil {
		t.Fatal(err)
	}
	l.EnsureInterned()
	it := l.Snapshot().Interned("old")
	dictLen := l.Dict().Len()
	if _, err := l.Apply(ctx, Rename("old", "new")); err != nil {
		t.Fatal(err)
	}
	nit := l.Snapshot().Interned("new")
	if nit == nil {
		t.Fatal("renamed table has no interned form")
	}
	if &nit.Cols[0][0] != &it.Cols[0][0] {
		t.Error("rename re-interned instead of retargeting")
	}
	if l.Dict().Len() != dictLen {
		t.Errorf("rename grew the dictionary: %d -> %d", dictLen, l.Dict().Len())
	}
}

// TestSnapshotDiff covers the delta the substrate maintenance consumes:
// adds, drops and replacements (old and new forms), plus the dict-swap
// guard.
func TestSnapshotDiff(t *testing.T) {
	ctx := context.Background()
	l := New()
	tOld := mkTable("t", "a")
	if _, err := l.Apply(ctx, Put(tOld), Put(mkTable("keep", "k"))); err != nil {
		t.Fatal(err)
	}
	s1 := l.Snapshot()
	tNew := mkTable("t", "b")
	if _, err := l.Apply(ctx, Put(tNew), Drop("keep"), Put(mkTable("fresh", "f"))); err != nil {
		t.Fatal(err)
	}
	s2 := l.Snapshot()
	added, removed, ok := Diff(s1, s2)
	if !ok {
		t.Fatal("Diff not ok within one lineage")
	}
	names := func(ts []*table.Table) []string {
		out := make([]string, len(ts))
		for i, tt := range ts {
			out[i] = tt.Name
		}
		return out
	}
	if got := names(added); !reflect.DeepEqual(got, []string{"t", "fresh"}) {
		t.Errorf("added = %v", got)
	}
	if got := names(removed); !reflect.DeepEqual(got, []string{"t", "keep"}) {
		t.Errorf("removed = %v", got)
	}
	// The replaced table's removed entry is the old pointer, added the new.
	if removed[0] != tOld || added[0] != tNew {
		t.Error("replacement did not carry old and new pointers")
	}

	// A dictionary adoption breaks the lineage: Diff refuses.
	l2 := New()
	if err := l2.AdoptDict(table.NewDict()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := Diff(s1, l2.Snapshot()); ok {
		t.Fatal("Diff ok across dictionary lineages")
	}
}

// TestInPlaceEditRePut: re-Putting the same table pointer after editing it
// in place (the v2 invalidation idiom: t := l.Get(n); edit; l.Add(t)) must
// drop the stale interned form and register as a change — Diff refuses a
// table-level delta (the pre-edit contents are gone), forcing a rebuild.
func TestInPlaceEditRePut(t *testing.T) {
	ctx := context.Background()
	l := New()
	tt := mkTable("t", "old")
	if _, err := l.Apply(ctx, Put(tt)); err != nil {
		t.Fatal(err)
	}
	before := l.Snapshot()
	before.EnsureInterned()
	e1 := l.Epoch()

	tt.Rows[0][0] = table.S("new") // in-place edit, same pointer
	if _, err := l.Apply(ctx, Put(tt)); err != nil {
		t.Fatal(err)
	}
	if l.Epoch() == e1 {
		t.Fatal("in-place edit re-Put did not move the epoch")
	}
	after := l.Snapshot()
	id, ok := after.Dict().LookupValue(table.S("new"))
	if !ok {
		after.EnsureInterned()
		id, ok = after.Dict().LookupValue(table.S("new"))
	}
	if !ok {
		t.Fatal("edited value never interned")
	}
	got := after.Interned("t").ColumnIDs(0)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("interned form still serves pre-edit contents: %v (want [%d])", got, id)
	}
	// The substrate delta cannot subtract the lost pre-edit form.
	if _, _, ok := Diff(before, after); ok {
		t.Fatal("Diff claimed a table-level delta bridges an in-place edit")
	}
	// But a re-Put of identical content (same pointer, untouched) is a true
	// no-op.
	e2 := l.Epoch()
	if _, err := l.Apply(ctx, Put(tt)); err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != e2 {
		t.Fatal("identical re-Put moved the epoch")
	}
	// And a clone with identical content under a new pointer diffs as
	// unchanged — nothing for a substrate delta to do.
	clone := tt.Clone()
	if _, err := l.Apply(ctx, Put(clone)); err != nil {
		t.Fatal(err)
	}
	added, removed, ok := Diff(after, l.Snapshot())
	if !ok || len(added) != 0 || len(removed) != 0 {
		t.Fatalf("content-identical replacement diffed as a change: ok=%v +%d -%d", ok, len(added), len(removed))
	}
}

// TestAdoptDictKeepsFingerprints: dictionary adoption republishes the
// snapshot with a fresh intern state but must not discard the content
// fingerprints — an identical re-Put afterwards is still a no-op and Diff
// still bridges by content.
func TestAdoptDictKeepsFingerprints(t *testing.T) {
	ctx := context.Background()
	// A persisted dictionary covering the lake's values.
	orig := New()
	if _, err := orig.Apply(ctx, Put(mkTable("t", "x"))); err != nil {
		t.Fatal(err)
	}
	orig.EnsureInterned()
	persisted, err := table.NewDictFromSnapshot(orig.Dict().Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	l := New()
	tt := mkTable("t", "x")
	if _, err := l.Apply(ctx, Put(tt)); err != nil {
		t.Fatal(err)
	}
	if err := l.AdoptDict(persisted); err != nil {
		t.Fatal(err)
	}
	e := l.Epoch()
	// An identical re-Put must stay a no-op after adoption.
	if _, err := l.Apply(ctx, Put(tt)); err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != e {
		t.Fatalf("identical re-Put after AdoptDict moved the epoch: %v -> %v", e, l.Epoch())
	}
	before := l.Snapshot()
	if _, err := l.Apply(ctx, Put(tt.Clone())); err != nil {
		t.Fatal(err)
	}
	if added, removed, ok := Diff(before, l.Snapshot()); !ok || len(added)+len(removed) != 0 {
		t.Fatalf("content-identical clone after AdoptDict diffed as a change: ok=%v +%d -%d",
			ok, len(added), len(removed))
	}
}

// TestSubsetPinsVersion: Subset shares interned forms and dictionary with
// its parent snapshot and skips unknown and duplicate names.
func TestSubsetPinsVersion(t *testing.T) {
	ctx := context.Background()
	l := New()
	if _, err := l.Apply(ctx, Put(mkTable("a", "x")), Put(mkTable("b", "y"))); err != nil {
		t.Fatal(err)
	}
	s := l.Snapshot()
	sub := s.Subset([]string{"b", "b", "ghost"})
	if sub.Len() != 1 || sub.Get("b") == nil {
		t.Fatalf("subset = %v", sub.Names())
	}
	if sub.Dict() != s.Dict() {
		t.Fatal("subset does not share the dictionary")
	}
	if sub.Epoch() != s.Epoch() {
		t.Fatal("subset carries a different epoch")
	}
	if sub.Interned("b") != s.Interned("b") {
		t.Fatal("subset does not share interned forms")
	}
}

// TestAdoptDictCovering: adoption scoped to covered tables tolerates novel
// values in the uncovered remainder but still rejects uncovered values in a
// covered table.
func TestAdoptDictCovering(t *testing.T) {
	ctx := context.Background()
	// The dictionary persisted when only "covered" existed.
	orig := New()
	if _, err := orig.Apply(ctx, Put(mkTable("covered", "x", "y"))); err != nil {
		t.Fatal(err)
	}
	orig.EnsureInterned()
	persisted, err := table.NewDictFromSnapshot(orig.Dict().Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// The lake has since grown a table full of novel values.
	grown := New()
	if _, err := grown.Apply(ctx, Put(mkTable("covered", "x", "y")), Put(mkTable("later", "novel1", "novel2"))); err != nil {
		t.Fatal(err)
	}
	if err := grown.AdoptDictCovering(persisted, []string{"covered"}); err != nil {
		t.Fatalf("covering adoption failed: %v", err)
	}
	if id, ok := grown.Dict().LookupValue(table.S("x")); !ok || id == 0 {
		t.Fatal("adopted dictionary lost covered values")
	}

	// Whole-lake adoption of the same dictionary must still fail: "later"
	// holds values the persisted indexes would miss.
	grown2 := New()
	if _, err := grown2.Apply(ctx, Put(mkTable("covered", "x", "y")), Put(mkTable("later", "novel1", "novel2"))); err != nil {
		t.Fatal(err)
	}
	persisted2, _ := table.NewDictFromSnapshot(persisted.Snapshot())
	if err := grown2.AdoptDict(persisted2); !errors.Is(err, ErrDictMismatch) {
		t.Fatalf("whole-lake adoption: %v, want ErrDictMismatch", err)
	}

	// A covered table with uncovered values fails even scoped.
	grown3 := New()
	if _, err := grown3.Apply(ctx, Put(mkTable("covered", "x", "EDITED"))); err != nil {
		t.Fatal(err)
	}
	persisted3, _ := table.NewDictFromSnapshot(persisted.Snapshot())
	if err := grown3.AdoptDictCovering(persisted3, []string{"covered"}); !errors.Is(err, ErrDictMismatch) {
		t.Fatalf("scoped adoption of edited table: %v, want ErrDictMismatch", err)
	}
}

// TestConcurrentMutateAndQuery hammers Apply and the snapshot reader
// surface from many goroutines — the exact unsynchronized-map race the
// snapshot layer fixes — and checks reader self-consistency. Run under -race
// (the CI race step selects tests named Concurrent).
func TestConcurrentMutateAndQuery(t *testing.T) {
	ctx := context.Background()
	l := New()
	for i := 0; i < 8; i++ {
		add(l, mkTable(fmt.Sprintf("seed%d", i), "a", "b", "c"))
	}
	const (
		writers = 4
		readers = 4
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-%d", w, i%10)
				if _, err := l.Apply(ctx, Put(mkTable(name, "x", "y"))); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := l.Apply(ctx, Drop(name)); err != nil {
						t.Error(err)
						return
					}
				}
				if i%7 == 0 {
					l.Apply(ctx,
						Put(mkTable(name+"-batch", "z")),
						Drop(name+"-batch"))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := l.Snapshot()
				// Within one snapshot, Names/Get/Tables must be mutually
				// consistent no matter what the writers do.
				names := snap.Names()
				if len(names) != snap.Len() {
					t.Error("snapshot Names/Len disagree")
					return
				}
				for _, n := range names {
					if snap.Get(n) == nil {
						t.Errorf("snapshot lists %q but cannot Get it", n)
						return
					}
				}
				l.Snapshot().Get("seed0")
				l.Snapshot().Names()
				if i%11 == 0 {
					snap.EnsureInterned()
					if snap.Interned(names[0]) == nil {
						t.Error("interned form missing for listed table")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if l.Snapshot().Get(fmt.Sprintf("seed%d", i)) == nil {
			t.Fatalf("seed%d lost", i)
		}
	}
}
