// Package table implements the relational substrate Gen-T is built on: cell
// values (including the labeled nulls used by table integration), tables with
// optional keys, a CSV codec, and the full set of integration operators from
// the paper — projection, selection, inner/outer union, subsumption (β),
// complementation (κ), the join family, cross product and full disjunction.
//
// Value comparison is syntactic, as in the paper: two cells are equal when
// their canonical forms match. There is one equality, which Value.Equal,
// Value.Key and the dictionary's IDs all carry: numeric text equals its
// number, ±0 is one value, all NaNs are one value, and any other text equals
// only itself. Numbers carry a parsed float alongside the canonical string so
// numeric selections remain possible.
//
// Rows are values: no operator writes a Row it did not build. An operator
// that changes a cell builds a new Row (κ's merged tuples among them), and
// one that re-lists rows — Rename, InnerUnion, PadNullColumns with nothing
// to pad, DropDuplicates, Subsume, Complement — returns a view: a table
// with its own Cols, Key and Rows slices over the same Row values. A view
// can be reordered or extended without touching the table it came from. Rows a lake holds are shared with every query this way and
// are read-only; a caller that writes cells takes a Clone first.
package table

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the kinds of cell values.
type Kind uint8

const (
	// KindNull is the SQL-style missing value ⊥.
	KindNull Kind = iota
	// KindString is an uninterpreted string value.
	KindString
	// KindNumber is a numeric value; it keeps its canonical text form so
	// equality stays syntactic.
	KindNumber
	// KindLabel is a labeled null: a value that behaves as a unique non-null
	// constant. Algorithm 2 uses labels to protect nulls the Source Table
	// shares with candidate tuples from being "filled in" erroneously.
	KindLabel
)

// Value is one table cell. The zero Value is the null ⊥.
type Value struct {
	Kind Kind
	Str  string  // canonical text for String and Number kinds
	Num  float64 // parsed number for KindNumber
	ID   int64   // label identity for KindLabel
}

// Null is the missing value ⊥.
var Null = Value{Kind: KindNull}

// S returns a string value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// N returns a number value with a canonical text form.
func N(f float64) Value {
	return Value{Kind: KindNumber, Str: formatNum(f), Num: f}
}

// Label returns a labeled null with the given identity.
func Label(id int64) Value { return Value{Kind: KindLabel, ID: id} }

func formatNum(f float64) string {
	if f == 0 {
		// Normalize -0 so Key agrees with Equal (which compares Num, where
		// -0 == 0).
		return "0"
	}
	// 'f' keeps large integers readable ("1608000", not "1.608e+06");
	// extreme magnitudes fall back to scientific notation.
	if f < 1e-4 && f > -1e-4 || f > 1e15 || f < -1e15 {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// parseDecimal parses raw as a plain decimal number: optional sign, digits
// with an optional fraction, optional decimal exponent. Spellings only Go's
// ParseFloat understands — hex floats ("0x1p4"), digit-separator underscores
// ("1_000") and the Inf/NaN words — are not numbers under the paper's
// syntactic equality and are rejected, so they stay KindString.
//
// The screen before ParseFloat also rejects what its grammar never accepts —
// a sign anywhere but first or right after the exponent mark, a '.' after
// it, a second '.' or a second exponent, a mantissa or an exponent without
// digits — so that a date such as "1995-01-02" or a lone "-" costs no error
// allocation: only an exponent out of float64's range reaches ParseFloat
// and fails.
func parseDecimal(raw string) (float64, bool) {
	digits, expDigits, dots, exps := 0, 0, 0, 0
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c >= '0' && c <= '9':
			if exps == 0 {
				digits++
			} else {
				expDigits++
			}
		case c == '.':
			if exps > 0 {
				return 0, false
			}
			dots++
		case c == 'e' || c == 'E':
			exps++
		case c == '+' || c == '-':
			if i > 0 && raw[i-1] != 'e' && raw[i-1] != 'E' {
				return 0, false
			}
		default:
			return 0, false
		}
	}
	if dots > 1 || exps > 1 || digits == 0 || exps == 1 && expDigits == 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Parse interprets raw text as a cell value: empty text is null, decimal
// numeric text becomes a number, and anything else is a string.
func Parse(raw string) Value {
	if raw == "" {
		return Null
	}
	if f, ok := parseDecimal(raw); ok {
		// Preserve the author's spelling so round-tripping is lossless.
		return Value{Kind: KindNumber, Str: raw, Num: f}
	}
	return Value{Kind: KindString, Str: raw}
}

// IsNull reports whether v is the missing value ⊥. Labeled nulls are NOT
// null: they act as unique constants until RemoveLabeledNulls reverts them.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Equal reports whether v and w are one value: whether they fall in the
// same dictionary class (entryOf), so that Equal, Key equality and Dict ID
// equality are one relation. Numbers compare by numeric value, so "1.0" and
// "1" from different generators match, and so does numeric text ("007") with
// its number; ±0 is one value and all NaNs are one value. Other strings
// compare exactly, so N(NaN) is not S("NaN"); labels compare by identity;
// null equals only null. Equal parses text only where it must and never
// allocates.
func (v Value) Equal(w Value) bool {
	// Numeric text starts with '+', '-', '.' or a digit, all at most '9',
	// and the one number whose text starts past '9' is NaN, whose text is
	// always "NaN". So a v whose text starts past '9' equals only values
	// with the same text: two different words are told apart here, in a
	// body small enough to inline into κ's and β's cell loops.
	return !(v.Str != "" && v.Str[0] > '9' && v.Str != w.Str) && v.equal(w)
}

// equal is Equal past its first test.
func (v Value) equal(w Value) bool {
	switch {
	case v.Kind == KindNull || w.Kind == KindNull || v.Kind == KindLabel || w.Kind == KindLabel:
		return v.Kind == w.Kind && (v.Kind == KindNull || v.ID == w.ID)
	case v.Kind == w.Kind && v.Str == w.Str: // one spelling of one number, or one text
		return true
	}
	f, ok := v.number()
	if !ok {
		return false
	}
	g, ok := w.number()
	return ok && (f == g || f != f && g != g) // ±0 compare equal; all NaNs are one value
}

// number returns the number a number or numeric text stands for.
func (v Value) number() (float64, bool) {
	if v.Kind == KindNumber {
		return v.Num, true
	}
	return parseDecimal(v.Str)
}

// Key returns a canonical form usable as a map key: two values have the same
// key exactly when they are Equal.
//
// Key output never contains a bare \x00, \x01 or \x02 outside the leading
// kind marker: string bodies are escaped (see keyEscape), so keys can be
// joined with \x01 into row keys (Row.Key, Table.RowKey) and with \x02 into
// slot keys without two different rows ever building the same joined string.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00N"
	case KindLabel:
		return "\x00L" + strconv.FormatInt(v.ID, 10)
	case KindNumber:
		return "\x00#" + formatNum(v.Num)
	default:
		if f, ok := parseDecimal(v.Str); ok {
			return "\x00#" + formatNum(f)
		}
		return "s" + keyEscape(v.Str)
	}
}

// keyEscape rewrites the control bytes reserved by key joining — \x00 (kind
// marker), \x01 (row-key separator), \x02 (slot separator) — as \x00-led
// pairs, making Value.Key injective under \x01-joins. Almost every real
// string has none and is returned unchanged.
func keyEscape(s string) string {
	i := 0
	for i < len(s) && s[i] > '\x02' {
		i++
	}
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	b.WriteString(s[:i])
	for ; i < len(s); i++ {
		if c := s[i]; c <= '\x02' {
			b.WriteByte('\x00')
			b.WriteByte('0' + c)
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// String renders the value for display; nulls render as "—" like the paper's
// figures, labels as ⟨L#id⟩.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "—"
	case KindLabel:
		return fmt.Sprintf("⟨L%d⟩", v.ID)
	default:
		return v.Str
	}
}

// Text renders the value for CSV output: nulls become the empty string and
// labels are rendered with a reserved prefix (they should normally be removed
// before persisting).
func (v Value) Text() string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindLabel:
		return fmt.Sprintf("\x00label:%d", v.ID)
	default:
		return v.Str
	}
}
