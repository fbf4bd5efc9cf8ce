package table

import (
	"math"
	"strings"
	"testing"
)

// fuzzValue decodes a fuzzed (kind, str, num, id) quadruple into a Value
// through the contract-honoring constructors (a Number's Str is always its
// canonical text). Non-finite numbers stay: Parse never builds them, but N
// does, and they are ordinary values under the one equality.
func fuzzValue(kind uint8, str string, num float64, id int64) Value {
	switch kind % 5 {
	case 0:
		return Null
	case 1:
		return S(str)
	case 2:
		return N(num)
	case 3:
		return Parse(str)
	default:
		return Label(id)
	}
}

// keyEquivalent is the independent oracle for Key()'s equivalence classes:
// null≡null, labels by identity, and everything else through the numeric
// collapse (numeric-text strings ≡ their number, ±0 ≡ 0, NaN ≡ NaN).
func keyEquivalent(v, w Value) bool {
	class := func(x Value) (isNum bool, bits uint64, s string) {
		switch x.Kind {
		case KindNumber:
			return true, canonicalBits(x.Num), ""
		default: // KindString
			if f, ok := parseDecimal(x.Str); ok {
				return true, canonicalBits(f), ""
			}
			return false, 0, x.Str
		}
	}
	if v.Kind == KindNull || w.Kind == KindNull {
		return v.Kind == w.Kind
	}
	if v.Kind == KindLabel || w.Kind == KindLabel {
		return v.Kind == w.Kind && v.ID == w.ID
	}
	vn, vb, vs := class(v)
	wn, wb, ws := class(w)
	if vn != wn {
		return false
	}
	if vn {
		return vb == wb
	}
	return vs == ws
}

// FuzzValueKey asserts that there is one value equality: a.Equal(b) exactly
// when a.Key() == b.Key(), exactly when the dictionary gives a and b one ID,
// exactly when the equivalence oracle says so (and an Overlay and a KeyIndex
// agree); that Equal is reflexive and symmetric; and that the '\x01'-joined
// Row.Key inherits Key's injectivity: joined keys collide only when every
// component collides, regardless of embedded control bytes.
func FuzzValueKey(f *testing.F) {
	f.Add(uint8(1), "plain", 0.0, int64(0), uint8(2), "1.5", 1.5, int64(0))
	f.Add(uint8(1), "1.0", 0.0, int64(0), uint8(2), "x", 1.0, int64(0))
	f.Add(uint8(1), "a\x01sb", 0.0, int64(0), uint8(1), "a", 0.0, int64(1))
	f.Add(uint8(3), "", 0.0, int64(5), uint8(1), "\x00L5", 0.0, int64(5))
	f.Add(uint8(0), "", 0.0, int64(0), uint8(2), "-0", math.Copysign(0, -1), int64(0))
	f.Add(uint8(0), "", 0.0, int64(0), uint8(1), "", 0.0, int64(0))
	f.Add(uint8(0), "", 0.0, int64(0), uint8(0), "", 0.0, int64(0))
	// Pairs on which Equal and Key once disagreed.
	f.Add(uint8(1), "007", 0.0, int64(0), uint8(2), "", 7.0, int64(0))
	f.Add(uint8(1), "7.0", 0.0, int64(0), uint8(2), "", 7.0, int64(0))
	f.Add(uint8(2), "", math.NaN(), int64(0), uint8(2), "", math.NaN(), int64(0))
	f.Add(uint8(2), "", math.NaN(), int64(0), uint8(1), "NaN", 0.0, int64(0))
	f.Add(uint8(2), "", math.Inf(1), int64(0), uint8(1), "+Inf", 0.0, int64(0))
	f.Fuzz(func(t *testing.T, k1 uint8, s1 string, n1 float64, id1 int64,
		k2 uint8, s2 string, n2 float64, id2 int64) {
		v, w := fuzzValue(k1, s1, n1, id1), fuzzValue(k2, s2, n2, id2)
		vk, wk := v.Key(), w.Key()

		if v.Equal(w) != (vk == wk) {
			t.Fatalf("Equal %v but keys equal %v: %#v (%q) vs %#v (%q)", v.Equal(w), vk == wk, v, vk, w, wk)
		}
		if w.Equal(v) != v.Equal(w) || !v.Equal(v) || !w.Equal(w) {
			t.Fatalf("Equal is not symmetric and reflexive on %#v, %#v", v, w)
		}
		if (vk == wk) != keyEquivalent(v, w) {
			t.Fatalf("key collision oracle mismatch: %#v (%q) vs %#v (%q), oracle %v",
				v, vk, w, wk, keyEquivalent(v, w))
		}

		// The dictionary must carve out exactly the same classes, and so must
		// an Overlay whose base already holds one of the two values and a
		// KeyIndex over a one-row table of either (a null keys no tuple).
		d := NewDict()
		if (d.InternValue(v) == d.InternValue(w)) != (vk == wk) {
			t.Fatalf("dict IDs diverge from keys: %#v vs %#v", v, w)
		}
		for _, pair := range [][2]Value{{v, w}, {w, v}} {
			base := NewDict()
			base.InternValue(pair[0])
			o := NewOverlay(base)
			if (o.InternValue(pair[1]) == o.InternValue(pair[0])) != (vk == wk) {
				t.Fatalf("overlay IDs diverge from keys: %#v (in base) vs %#v", pair[0], pair[1])
			}
			one := New("one", "k")
			one.Key = []int{0}
			one.AddRow(pair[0])
			_, ok := NewKeyIndex(one).Lookup(Row{pair[1]}, []int{0})
			if want := vk == wk && !v.IsNull(); ok != want {
				t.Fatalf("KeyIndex over %#v finds %#v: %v, want %v", pair[0], pair[1], ok, want)
			}
		}

		// Component keys must never leak a bare row separator, the property
		// row-key injectivity rests on.
		if strings.ContainsRune(vk, '\x01') || strings.ContainsRune(vk, '\x02') {
			t.Fatalf("key %q contains a bare separator", vk)
		}

		// Row-level: two-cell rows joined both ways around collide only when
		// the components collide pairwise, and never across widths.
		rowVW := Row{v, w}.Key()
		rowWV := Row{w, v}.Key()
		if (rowVW == rowWV) != (vk == wk) {
			t.Fatalf("row key collision without component collision: %q vs %q", rowVW, rowWV)
		}
		if (Row{v}).Key() == rowVW || (Row{w}).Key() == rowVW {
			t.Fatalf("row keys collide across widths: %q", rowVW)
		}
	})
}
