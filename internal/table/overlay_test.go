package table

import "testing"

func TestOverlayKeepsBaseClean(t *testing.T) {
	base := NewDict()
	known := base.InternValue(S("known"))
	baseLen := base.Len()

	ov := NewOverlay(base)
	if got := ov.InternValue(S("known")); got != known {
		t.Fatalf("overlay returned %d for a base value, want %d", got, known)
	}
	novel := ov.InternValue(S("novel"))
	if novel&overlayIDBit == 0 {
		t.Fatalf("overlay-local ID %d missing the high bit", novel)
	}
	if got := ov.InternValue(S("novel")); got != novel {
		t.Error("overlay re-intern must be stable")
	}
	if got, ok := ov.LookupValue(S("novel")); !ok || got != novel {
		t.Error("overlay lookup must see overlay-local values")
	}
	if _, ok := ov.LookupValue(S("nowhere")); ok {
		t.Error("overlay lookup must miss values neither side has")
	}
	if base.Len() != baseLen {
		t.Fatalf("overlay interning grew the base dictionary: %d -> %d", baseLen, base.Len())
	}
	if _, ok := base.LookupValue(S("novel")); ok {
		t.Fatal("overlay value leaked into the base dictionary")
	}
	// Cross-kind classes apply in the overlay too.
	if ov.InternValue(S("3.0")) != ov.InternValue(N(3)) {
		t.Error("overlay must collapse numeric-text onto numbers")
	}
	if ov.InternValue(Null) != NullID {
		t.Error("overlay null must be NullID")
	}
	// Two overlays over one base are independent for novel values but agree
	// on base values.
	ov2 := NewOverlay(base)
	if ov2.InternValue(S("known")) != known {
		t.Error("second overlay must resolve base values identically")
	}
	if _, ok := ov2.LookupValue(S("novel")); ok {
		t.Error("overlays must not share local values")
	}
}

// TestFingerprintTracksEntries: a dictionary's prefix stamp — the
// fingerprint persisted files bind to — is a function of its entries alone.
func TestFingerprintTracksEntries(t *testing.T) {
	stamp := func(d *Dict) [2]uint64 {
		n, fp := d.PrefixStamp()
		return [2]uint64{uint64(n), fp}
	}
	a, b := NewDict(), NewDict()
	if stamp(a) != stamp(b) {
		t.Fatal("empty dictionaries must share a stamp")
	}
	a.InternValue(S("x"))
	if stamp(a) == stamp(b) {
		t.Fatal("stamp must change when entries are added")
	}
	b.InternValue(S("x"))
	if stamp(a) != stamp(b) {
		t.Fatal("identical entries must share a stamp")
	}
	a.InternValue(S("y"))
	b.InternValue(N(1))
	if stamp(a) == stamp(b) {
		t.Fatal("diverged dictionaries must not share a stamp")
	}
}

// LookupValue returns v's ID without interning, resolving through the base
// first; ok is false when neither has seen v's value class.
func (o *Overlay) LookupValue(v Value) (uint32, bool) {
	if v.Kind == KindNull {
		return NullID, true
	}
	return o.lookup(entryOf(v))
}
