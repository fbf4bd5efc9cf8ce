package table

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestDictInternAssignsDenseStableIDs(t *testing.T) {
	d := NewDict()
	a := d.InternValue(S("alpha"))
	b := d.InternValue(N(42))
	c := d.InternValue(Label(7))
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("dense assignment broken: got %d, %d, %d", a, b, c)
	}
	if d.InternValue(S("alpha")) != a || d.InternValue(N(42)) != b || d.InternValue(Label(7)) != c {
		t.Error("re-interning must return the original ID")
	}
	if d.InternValue(Null) != NullID {
		t.Error("null must intern to NullID")
	}
	if got, ok := d.LookupValue(S("alpha")); !ok || got != a {
		t.Errorf("LookupValue(alpha) = %d, %v", got, ok)
	}
	if _, ok := d.LookupValue(S("never seen")); ok {
		t.Error("LookupValue must miss unseen values")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

// TestDictMatchesKeyEquivalence pins the contract that ID equality is
// Value.Key equality, including the cross-kind classes: numeric-text strings
// collapse onto numbers, ±0 share an entry, all NaNs share an entry.
func TestDictMatchesKeyEquivalence(t *testing.T) {
	vals := []Value{
		S("x"), S("1"), S("1.0"), S("01"), N(1), N(1.5), S("1.5"),
		N(0), N(math.Copysign(0, -1)), S("-0"), S("0"),
		N(math.NaN()), N(math.Inf(1)),
		Label(1), Label(2), S("0x1p4"), S("16"), N(16), S("1_000"), S("1000"),
	}
	d := NewDict()
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = d.InternValue(v)
	}
	for i, v := range vals {
		for j, w := range vals {
			if (ids[i] == ids[j]) != (v.Key() == w.Key()) {
				t.Errorf("ID equivalence diverged from Key: %v (id %d, key %q) vs %v (id %d, key %q)",
					v, ids[i], v.Key(), w, ids[j], w.Key())
			}
		}
	}
	// LookupValue must agree with InternValue.
	for i, v := range vals {
		if got, ok := d.LookupValue(v); !ok || got != ids[i] {
			t.Errorf("LookupValue(%v) = %d, %v; want %d", v, got, ok, ids[i])
		}
	}
}

// TestDictConcurrentIntern hammers one dictionary from many goroutines (run
// under -race): every goroutine must observe the same ID for the same value,
// and the ID space must stay dense.
func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const workers = 8
	const perWorker = 400
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, perWorker)
			for i := 0; i < perWorker; i++ {
				// Heavy overlap across workers, mixed kinds.
				switch i % 3 {
				case 0:
					ids[i] = d.InternValue(S(fmt.Sprintf("v%d", i%50)))
				case 1:
					ids[i] = d.InternValue(N(float64(i % 40)))
				default:
					ids[i] = d.InternValue(Label(int64(i % 30)))
				}
				if v, ok := d.LookupValue(S(fmt.Sprintf("v%d", i%50))); ok && v == NullID {
					t.Error("NullID assigned to a real value")
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d saw ID %d for slot %d, worker 0 saw %d",
					w, got[w][i], i, got[0][i])
			}
		}
	}
	n := d.Len()
	seen := make(map[uint32]bool)
	for _, ids := range got {
		for _, id := range ids {
			if id == NullID || int(id) > n {
				t.Fatalf("ID %d outside dense range 1..%d", id, n)
			}
			seen[id] = true
		}
	}
	if len(seen) != n {
		t.Errorf("dictionary has %d entries but %d distinct IDs were handed out", n, len(seen))
	}
}

func TestDictSnapshotRoundTrip(t *testing.T) {
	d := NewDict()
	vals := []Value{S("a"), N(2.5), Label(9), S("7"), S("weird\x01bytes"), N(math.NaN())}
	want := make([]uint32, len(vals))
	for i, v := range vals {
		want[i] = d.InternValue(v)
	}
	restored, err := NewDictFromSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got, ok := restored.LookupValue(v)
		if !ok || got != want[i] {
			t.Errorf("restored LookupValue(%v) = %d, %v; want %d", v, got, ok, want[i])
		}
	}
	if !restored.PrefixOf(d) || !d.PrefixOf(restored) {
		t.Error("snapshot restore must be mutually prefix-compatible")
	}
	restoredThenGrown, _ := NewDictFromSnapshot(d.Snapshot())
	d.InternValue(S("later"))
	if !restoredThenGrown.PrefixOf(d) {
		t.Error("snapshot must stay a prefix of the grown original")
	}
	if d.PrefixOf(restoredThenGrown) {
		t.Error("grown dictionary is not a prefix of its old snapshot")
	}
	if _, err := NewDictFromSnapshot([]DictEntry{{Kind: KindString, Str: "x"}, {Kind: KindString, Str: "x"}}); err == nil {
		t.Error("duplicate snapshot entries must be rejected")
	}
}

func TestInternTableAndColumnIDs(t *testing.T) {
	tab := New("t", "a", "b")
	tab.AddRow(S("x"), N(1))
	tab.AddRow(S("y"), Null)
	tab.AddRow(S("x"), N(2))
	d := NewDict()
	it := InternTable(d, tab)
	if it.Cols[0][0] != it.Cols[0][2] {
		t.Error("same value must get the same ID")
	}
	if it.Cols[1][1] != NullID {
		t.Error("null cell must be NullID")
	}
	ids := it.ColumnIDs(0)
	if len(ids) != 2 {
		t.Fatalf("column 0 has %d distinct IDs, want 2", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("ColumnIDs must be sorted and distinct")
		}
	}
	if got := it.ColumnIDs(1); len(got) != 2 {
		t.Errorf("column 1 has %d distinct non-null IDs, want 2", len(got))
	}
	// Distinct counts must agree with the string-set reference.
	for c := range tab.Cols {
		if len(it.ColumnIDs(c)) != len(tab.ColumnSet(c)) {
			t.Errorf("column %d: ID set size %d != string set size %d",
				c, len(it.ColumnIDs(c)), len(tab.ColumnSet(c)))
		}
	}
}

func TestIDSetOps(t *testing.T) {
	a := []uint32{1, 3, 5, 9}
	b := []uint32{3, 4, 5}
	if got := IntersectIDs(a, b); got != 2 {
		t.Errorf("IntersectIDs = %d, want 2", got)
	}
	if !ContainsIDs(a, []uint32{3, 9}) || ContainsIDs(a, b) || !ContainsIDs(a, nil) {
		t.Error("ContainsIDs wrong")
	}
	if !HasID(a, 5) || HasID(a, 4) {
		t.Error("HasID wrong")
	}
}
