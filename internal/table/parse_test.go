package table

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestParseRejectsGoOnlyNumberSpellings pins the decimal-text contract:
// spellings only Go's ParseFloat understands are not numbers under the
// paper's syntactic equality and must stay strings.
func TestParseRejectsGoOnlyNumberSpellings(t *testing.T) {
	rejected := []string{
		"0x1p4", "0X1P-2", "0x10", // hex floats / hex digits
		"1_000", "1_0.5", "1e1_0", // digit-separator underscores
		"inf", "Inf", "+inf", "-Inf", "nan", "NaN", // words
	}
	for _, raw := range rejected {
		if v := Parse(raw); v.Kind != KindString {
			t.Errorf("Parse(%q) = kind %d, want KindString", raw, v.Kind)
		}
		// Key must classify them the same way — no collision with the
		// number they would parse to.
		if k := S(raw).Key(); k[0] != 's' {
			t.Errorf("S(%q).Key() = %q, want a string key", raw, k)
		}
	}
	accepted := map[string]float64{
		"42":      42,
		"-3.5":    -3.5,
		"+7":      7,
		"1e5":     1e5,
		"2.5E-3":  2.5e-3,
		"1608000": 1608000,
		".5":      0.5,
	}
	for raw, want := range accepted {
		v := Parse(raw)
		if v.Kind != KindNumber || v.Num != want {
			t.Errorf("Parse(%q) = %+v, want number %v", raw, v, want)
		}
		if v.Str != raw {
			t.Errorf("Parse(%q) lost the author's spelling: %q", raw, v.Str)
		}
	}
	// Overflowing exponents stay strings (ParseFloat range error).
	if v := Parse("1e999"); v.Kind != KindString {
		t.Errorf("Parse(1e999) = kind %d, want KindString", v.Kind)
	}
}

// TestKeyEscapingMakesRowKeysInjective pins the concrete collision the old
// unescaped join allowed: cell text containing the separator could fake a
// column boundary.
func TestKeyEscapingMakesRowKeysInjective(t *testing.T) {
	a := Row{S("a\x01sb"), S("c")}
	b := Row{S("a"), S("b\x01sc")}
	if a.Key() == b.Key() {
		t.Fatal("rows with separator-embedding cells must not share a key")
	}
	if !a.Equal(a.Clone()) || a.Key() != a.Clone().Key() {
		t.Fatal("key must be stable")
	}
	// Escaped bodies are pairwise distinct and free of the joining bytes.
	seen := make(map[string]string)
	for _, s := range []string{"\x00", "\x01", "\x02", "\x000", "mixed\x00\x01\x02end", "plain"} {
		e := keyEscape(s)
		if strings.ContainsAny(e, "\x01\x02") {
			t.Errorf("escaped %q still holds a separator: %q", s, e)
		}
		if prev, dup := seen[e]; dup {
			t.Errorf("%q and %q escape to the same body %q", prev, s, e)
		}
		seen[e] = s
	}
}

// referenceDecimal is parseDecimal without its grammar screen: the character
// screen, then strconv.ParseFloat.
func referenceDecimal(raw string) (float64, bool) {
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c >= '0' && c <= '9':
		case c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E':
		default:
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// FuzzParseDecimal holds parseDecimal to referenceDecimal on every input:
// the screen that spares rejected strings an error allocation must not
// change which strings are numbers, nor their values.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{"1995-01-02", "2024-12-31", "1e-5", "-.5", "1-2", "+-1",
		"1e5e5", "1..2", "1.5E+3", "-", "e", ".", "", "12", "1e999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotOK := parseDecimal(s)
		want, wantOK := referenceDecimal(s)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseDecimal(%q) = %v, %v; reference %v, %v", s, got, gotOK, want, wantOK)
		}
	})
}

// TestParseDateAllocatesNothing pins the reason for parseDecimal's screen: a
// date-shaped cell is rejected before ParseFloat builds an error.
func TestParseDateAllocatesNothing(t *testing.T) {
	raw := strings.Clone("1995-01-02")
	if n := testing.AllocsPerRun(100, func() { _ = Parse(raw) }); n != 0 {
		t.Fatalf("Parse(%q) allocates %v objects, want 0", raw, n)
	}
	if v := Parse(raw); v.Kind != KindString {
		t.Fatalf("Parse(%q) = kind %d, want KindString", raw, v.Kind)
	}
}
