package lake

import (
	"sync"
	"testing"

	"gent/internal/table"
)

func internedLake() *Lake {
	l := New()
	a := table.New("a", "x")
	a.AddRow(table.S("one"))
	a.AddRow(table.S("two"))
	add(l, a)
	b := table.New("b", "y")
	b.AddRow(table.S("two"))
	b.AddRow(table.N(3))
	add(l, b)
	return l
}

func TestLakeInterningIsSharedAndCached(t *testing.T) {
	l := internedLake()
	s := l.Snapshot()
	ia := s.Interned("a")
	ib := s.Interned("b")
	if ia == nil || ib == nil {
		t.Fatal("interned forms missing")
	}
	// "two" appears in both tables: one dictionary entry, one ID.
	if ia.Cols[0][1] != ib.Cols[0][0] {
		t.Error("shared value interned under two IDs")
	}
	if s.Interned("a") != ia {
		t.Error("interned form not cached")
	}
	if s.Interned("nope") != nil {
		t.Error("unknown table must intern to nil")
	}

	// Replacing a table invalidates only its cached form; IDs stay stable.
	before := l.Dict().Len()
	a2 := table.New("a", "x")
	a2.AddRow(table.S("one"))
	a2.AddRow(table.S("fresh"))
	add(l, a2)
	ia2 := l.Snapshot().Interned("a")
	if ia2 == ia {
		t.Fatal("stale interned form served after table replacement")
	}
	if l.Dict().Len() != before+1 {
		t.Errorf("dictionary grew by %d, want 1 (append-only)", l.Dict().Len()-before)
	}
	if ia2.Cols[0][0] != ia.Cols[0][0] {
		t.Error("re-interning changed a stable ID")
	}
	drop(l, "b")
	if l.Snapshot().Interned("b") != nil {
		t.Error("removed table still interned")
	}
}

func TestLakeConcurrentInterned(t *testing.T) {
	l := internedLake()
	var wg sync.WaitGroup
	forms := make([]*table.Interned, 8)
	for i := range forms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forms[i] = l.Snapshot().Interned("a")
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(forms); i++ {
		if forms[i] != forms[0] {
			t.Fatal("concurrent Interned returned different forms")
		}
	}
}

// TestSubsetSharing: a subset of an already-interned snapshot skips unknown
// and duplicate names and serves the parent's cached forms — no re-interning.
func TestSubsetSharing(t *testing.T) {
	s := internedLake().Snapshot()
	s.EnsureInterned()
	p := s.Subset([]string{"b", "ghost", "b"})
	if p.Len() != 1 || p.Get("b") == nil || p.Get("ghost") != nil {
		t.Fatalf("subset wrong: %v", p.Names())
	}
	if p.Dict() != s.Dict() {
		t.Error("subset must share the parent dictionary")
	}
	if p.Interned("b") != s.Interned("b") {
		t.Error("subset must share cached interned forms")
	}
}

func TestAdoptDictPrefixCompatibility(t *testing.T) {
	l := internedLake()
	l.EnsureInterned()
	snap, err := table.NewDictFromSnapshot(l.Dict().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot of this lake's dictionary is prefix-compatible even though
	// the lake is already interned.
	if err := l.AdoptDict(snap); err != nil {
		t.Fatalf("prefix-compatible adoption failed: %v", err)
	}
	// A diverged dictionary is refused.
	other := table.NewDict()
	other.InternValue(table.S("divergent"))
	if err := l.AdoptDict(other); err == nil {
		t.Fatal("diverged dictionary adopted into an interned lake")
	}
}
