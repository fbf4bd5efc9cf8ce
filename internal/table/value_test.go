package table

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	tests := []struct {
		raw  string
		want Value
	}{
		{"", Null},
		{"hello", S("hello")},
		{"27", Value{Kind: KindNumber, Str: "27", Num: 27}},
		{"-3.5", Value{Kind: KindNumber, Str: "-3.5", Num: -3.5}},
		{"1e3", Value{Kind: KindNumber, Str: "1e3", Num: 1000}},
		{"NaN", S("NaN")},
		{"Inf", S("Inf")},
		{"12 Main St", S("12 Main St")},
	}
	for _, tc := range tests {
		if got := Parse(tc.raw); got != tc.want {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.raw, got, tc.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !N(1).Equal(Parse("1.0")) {
		t.Error("numbers with different spellings should be equal")
	}
	if !S("27").Equal(N(27)) {
		t.Error("string '27' should equal number 27 (syntactic match)")
	}
	if Null.Equal(S("")) {
		t.Error("null must not equal any string")
	}
	if !Null.Equal(Null) {
		t.Error("null equals null")
	}
	if Label(1).Equal(Label(2)) {
		t.Error("distinct labels must differ")
	}
	if !Label(7).Equal(Label(7)) {
		t.Error("same label must be equal")
	}
	if Label(1).Equal(Null) || Null.Equal(Label(1)) {
		t.Error("labels are non-null values")
	}
	if S("abc").Equal(S("abd")) {
		t.Error("different strings must differ")
	}
	// Equal is the dictionary's class equality: numeric text is its number,
	// ±0 and all NaNs are one value each, and the Inf/NaN words are text.
	for _, c := range equalityPairs {
		if got := c.a.Equal(c.b); got != c.equal || c.b.Equal(c.a) != c.equal {
			t.Errorf("%#v.Equal(%#v) = %v, want %v both ways", c.a, c.b, got, c.equal)
		}
		if same := c.a.Key() == c.b.Key(); same != c.equal {
			t.Errorf("keys of %#v and %#v equal %v, want %v", c.a, c.b, same, c.equal)
		}
	}
}

// equalityPairs are pairs at the edges of the one equality — respelled
// numbers, ±0, NaN, the Inf/NaN words and text that starts like a number —
// with their verdict.
var equalityPairs = []struct {
	a, b  Value
	equal bool
}{
	{S("007"), N(7), true},
	{S("7.0"), N(7), true},
	{S("007"), S("7.0"), true},
	{N(0), N(math.Copysign(0, -1)), true},
	{N(math.NaN()), N(math.NaN()), true},
	{N(math.NaN()), N(-math.NaN()), true},
	{N(math.NaN()), S("NaN"), false},
	{N(math.Inf(1)), S("+Inf"), false},
	{N(math.Inf(1)), N(math.Inf(1)), true},
	{S("NaN"), S("NaN"), true},
	{S("1995-01-02"), S("1995-01-03"), false},
	{S("1e"), N(1), false},
	{S("-"), S("+"), false},
}

// TestValueEqualAllocatesNothing pins that Equal classifies cells without
// building keys or errors, also on text that looks like the start of a
// number.
func TestValueEqualAllocatesNothing(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		for _, c := range equalityPairs {
			_ = c.a.Equal(c.b)
			_ = c.b.Equal(c.a)
		}
	})
	if n != 0 {
		t.Fatalf("Equal allocates %v objects over equalityPairs, want 0", n)
	}
}

func TestValueIsNull(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	for _, v := range []Value{S(""), S("x"), N(0), Label(0)} {
		if v.IsNull() {
			t.Errorf("%#v should not be null", v)
		}
	}
}

func TestValueString(t *testing.T) {
	if got := Null.String(); got != "—" {
		t.Errorf("Null.String() = %q", got)
	}
	if got := N(2.5).String(); got != "2.5" {
		t.Errorf("N(2.5).String() = %q", got)
	}
	if got := Label(3).String(); got != "⟨L3⟩" {
		t.Errorf("Label(3).String() = %q", got)
	}
}

// randomValue draws a value from a small domain so collisions are common —
// exactly what the property tests need.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return N(float64(r.Intn(6)))
	case 2:
		return S(string(rune('a' + r.Intn(6))))
	case 3:
		return S("shared")
	default:
		return N(float64(r.Intn(3)) + 0.5)
	}
}

type valuePair struct{ A, B Value }

// Generate implements quick.Generator for valuePair.
func (valuePair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valuePair{randomValue(r), randomValue(r)})
}

func TestValueKeyAgreesWithEqual(t *testing.T) {
	// Property: Equal(a, b) exactly when canonical keys match.
	prop := func(p valuePair) bool {
		return p.A.Equal(p.B) == (p.A.Key() == p.B.Key())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueCompareIsOrdering(t *testing.T) {
	// Property: Compare is antisymmetric and consistent with Equal for
	// same-kind values.
	prop := func(p valuePair) bool {
		ab, ba := p.A.Compare(p.B), p.B.Compare(p.A)
		if (ab < 0) != (ba > 0) || (ab == 0) != (ba == 0) {
			return false
		}
		if p.A.Kind == p.B.Kind && p.A.Equal(p.B) != (ab == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueTextRoundTrip(t *testing.T) {
	for _, v := range []Value{Null, S("x y"), N(42), N(-1.25)} {
		got := Parse(v.Text())
		if !got.Equal(v) {
			t.Errorf("Parse(Text(%v)) = %v, want equal", v, got)
		}
	}
}

// Compare orders values deterministically: nulls first, then numbers by
// value, then strings lexicographically, then labels by identity.
func (v Value) Compare(w Value) int {
	r := func(k Kind) int {
		switch k {
		case KindNull:
			return 0
		case KindNumber:
			return 1
		case KindString:
			return 2
		default:
			return 3
		}
	}
	if a, b := r(v.Kind), r(w.Kind); a != b {
		return a - b
	}
	switch v.Kind {
	case KindNull:
		return 0
	case KindNumber:
		switch {
		case v.Num < w.Num:
			return -1
		case v.Num > w.Num:
			return 1
		}
		return 0
	case KindLabel:
		switch {
		case v.ID < w.ID:
			return -1
		case v.ID > w.ID:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.Str, w.Str)
	}
}
