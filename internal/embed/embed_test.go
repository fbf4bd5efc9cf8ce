package embed

import (
	"math"
	"reflect"
	"testing"

	"gent/internal/table"
)

// dot is the cosine of two unit vectors.
func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func unitNorm(t *testing.T, vec []float32) {
	t.Helper()
	var n float64
	for _, v := range vec {
		n += float64(v) * float64(v)
	}
	if math.Abs(n-1) > 1e-5 {
		t.Fatalf("vector norm² = %v, want 1", n)
	}
}

func TestNGramEmbedderDeterministic(t *testing.T) {
	e := Default()
	keys := []string{"sberlin", "shamburg", "smunich", "\x00#42"}
	a, ok := e.Embed(keys)
	if !ok {
		t.Fatal("embed failed")
	}
	b, _ := e.Embed(keys)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same keys produced different vectors")
	}
	unitNorm(t, a)
	if NewNGramEmbedder(DefaultDim, defaultNGram, defaultSeed).Fingerprint() != e.Fingerprint() {
		t.Fatal("equal parameters, unequal fingerprints")
	}
	if NewNGramEmbedder(DefaultDim, defaultNGram, 1).Fingerprint() == e.Fingerprint() {
		t.Fatal("different seed, same fingerprint")
	}
}

// TestNGramEmbedderSurfaceDrift: decorated/translated spellings of the same
// values must stay far closer in cosine than unrelated columns — that is the
// entire value proposition of the n-gram space.
func TestNGramEmbedderSurfaceDrift(t *testing.T) {
	e := Default()
	orig := table.New("orig", "city")
	drift := table.New("drift", "city")
	other := table.New("other", "fruit")
	for i, c := range []string{"berlin", "hamburg", "munich", "cologne", "frankfurt", "stuttgart"} {
		orig.AddRow(table.S(c))
		drift.AddRow(table.S("xx·" + c)) // surface decoration, zero exact overlap
		_ = i
	}
	for _, f := range []string{"apple", "banana", "cherry", "quince", "plum", "grape"} {
		other.AddRow(table.S(f))
	}
	ov, _ := EmbedColumn(e, orig, 0)
	dv, _ := EmbedColumn(e, drift, 0)
	xv, _ := EmbedColumn(e, other, 0)
	drifted, unrelated := dot(ov, dv), dot(ov, xv)
	if drifted < 0.6 {
		t.Fatalf("drifted cosine %v, want ≥ 0.6", drifted)
	}
	if drifted <= unrelated+0.3 {
		t.Fatalf("drifted cosine %v not clearly above unrelated %v", drifted, unrelated)
	}
}

func TestEmbedColumnEmpty(t *testing.T) {
	tb := table.New("t", "a")
	tb.AddRow(table.Null)
	if _, ok := EmbedColumn(Default(), tb, 0); ok {
		t.Fatal("all-null column embedded")
	}
}
