package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
	n, fp := d.PrefixStamp()
	if !restored.VerifyPrefixStamp(n, fp) {
		t.Error("snapshot restore must carry the original's stamp")
	}
	d.InternValue(S("later"))
	if !d.VerifyPrefixStamp(n, fp) {
		t.Error("the grown original must still verify its old stamp")
	}
	if grown, gfp := d.PrefixStamp(); restored.VerifyPrefixStamp(grown, gfp) {
		t.Error("the restore verified a stamp past its entries")
	}
	// Entries Snapshot never produces: no lookup could reach them.
	for name, entries := range map[string][]DictEntry{
		"duplicate":          {{Kind: KindString, Str: "x"}, {Kind: KindString, Str: "x"}},
		"null kind":          {{Kind: KindNull}},
		"unknown kind":       {{Kind: Kind(9), Str: "x"}},
		"numeric text":       {{Kind: KindString, Str: "7"}},
		"numeric text 1e0":   {{Kind: KindString, Str: "a"}, {Kind: KindString, Str: "1e0"}},
		"negative zero":      {{Kind: KindNumber, Bits: math.Float64bits(math.Copysign(0, -1))}},
		"NaN payload":        {{Kind: KindNumber, Bits: math.Float64bits(math.NaN()) ^ 1}},
		"text and -0 (both)": {{Kind: KindString, Str: "7"}, {Kind: KindNumber, Bits: math.Float64bits(math.Copysign(0, -1))}},
	} {
		if _, err := NewDictFromSnapshot(entries); err == nil {
			t.Errorf("%s: snapshot %v must be rejected", name, entries)
		}
	}
}

// FuzzDictSnapshot restores arbitrary entries: NewDictFromSnapshot either
// rejects them or returns a dictionary whose every ID round-trips through
// ValueOf and LookupValue and whose Snapshot is the input.
func FuzzDictSnapshot(f *testing.F) {
	f.Add(uint8(KindString), "a", uint64(0), int64(0), uint8(KindNumber), "", math.Float64bits(2.5), int64(0))
	f.Add(uint8(KindString), "7", uint64(0), int64(0), uint8(KindNumber), "", math.Float64bits(math.Copysign(0, -1)), int64(0))
	f.Add(uint8(KindLabel), "", uint64(0), int64(9), uint8(KindNumber), "", math.Float64bits(math.NaN()), int64(0))
	f.Add(uint8(KindString), "x", uint64(0), int64(0), uint8(KindString), "x", uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, k1 uint8, s1 string, b1 uint64, l1 int64, k2 uint8, s2 string, b2 uint64, l2 int64) {
		in := []DictEntry{{Kind: Kind(k1), Str: s1, Bits: b1, Label: l1}, {Kind: Kind(k2), Str: s2, Bits: b2, Label: l2}}
		for _, n := range []int{1, 2} {
			d, err := NewDictFromSnapshot(in[:n])
			if err != nil {
				continue
			}
			for id := uint32(1); id <= uint32(n); id++ {
				if got, ok := d.LookupValue(d.ValueOf(id)); !ok || got != id {
					t.Fatalf("restored %v: LookupValue(ValueOf(%d)) = %d, %v", in[:n], id, got, ok)
				}
			}
			if snap := d.Snapshot(); !slices.Equal(snap, in[:n]) {
				t.Fatalf("restored %v: Snapshot() = %v", in[:n], snap)
			}
		}
	})
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

// TestPreInternMergeMatchesSerial checks the two-phase lake intern: tables
// pre-interned concurrently and merged in order get exactly the dictionary,
// cell IDs and column ID sets of one serial InternTable pass.
func TestPreInternMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pool := keyPool("x", "7", "007")
	tabs := make([]*Table, 6)
	for i := range tabs {
		tabs[i] = keyedTable(rng.Intn(20), 1, 2, func() Value { return pool[rng.Intn(len(pool))] })
	}
	serial := NewDict()
	want := make([]*Interned, len(tabs))
	for i, tab := range tabs {
		want[i] = InternTable(serial, tab)
	}
	pre := make([]*PreInterned, len(tabs))
	var wg sync.WaitGroup
	for i, tab := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pre[i] = PreInternTable(tab)
		}()
	}
	wg.Wait()
	merged := NewDict()
	for i, p := range pre {
		got := p.Merge(merged)
		for c := range tabs[i].Cols {
			if !slices.Equal(got.Cols[c], want[i].Cols[c]) || !slices.Equal(got.ColumnIDs(c), want[i].ColumnIDs(c)) {
				t.Fatalf("table %d column %d: merged %v / %v, serial %v / %v",
					i, c, got.Cols[c], got.ColumnIDs(c), want[i].Cols[c], want[i].ColumnIDs(c))
			}
		}
	}
	if !slices.Equal(merged.Snapshot(), serial.Snapshot()) {
		t.Fatalf("merged dictionary %v, serial %v", merged.Snapshot(), serial.Snapshot())
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

// HasID reports membership of id in a sorted distinct ID slice.
func HasID(a []uint32, id uint32) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= id })
	return i < len(a) && a[i] == id
}

// LookupValue returns v's ID without interning; ok is false when v's value
// class has never been interned (nulls report NullID, true).
func (d *Dict) LookupValue(v Value) (uint32, bool) {
	if v.Kind == KindNull {
		return NullID, true
	}
	return d.lookup(entryOf(v))
}
