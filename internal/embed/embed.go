// Package embed turns a lake column into a unit vector: the pluggable
// Embedder interface, the built-in n-gram embedder, and the loader for
// external word-vector files. The cosine-LSH index over those vectors lives
// with the other discovery substrates, in internal/index (index.CosineLSH).
//
// The built-in embedder hashes character n-grams of each value's canonical
// text into a fixed-dimension random-projection space — deterministic, needs
// no model file, and robust to the surface-form drift (affixes, decoration,
// transliteration) that zeroes exact value overlap. A fasttext-style vector
// file can be loaded instead (LoadVectorFile) when true cross-lingual
// vectors are available.
//
// Determinism contract: a column's vector depends only on its set of
// distinct canonical values — Embed receives them sorted, so float
// accumulation order is fixed. That is what makes the index's delta
// maintenance bit-identical to a fresh rebuild: re-embedding a column in a
// delta produces the identical float32s the build produced.
package embed

import (
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"gent/internal/table"
)

// Embedder maps a column's distinct values to a unit vector.
//
// Embed receives the column's distinct canonical value keys sorted
// ascending and must be deterministic in that slice: same keys, same
// float32s, every time, on every platform. ok=false means nothing in the
// column was embeddable (the column then simply has no semantic presence).
// Fingerprint identifies the embedding function and its parameters; two
// embedders with equal fingerprints must produce identical vectors, and the
// index refuses to mix vectors across fingerprints.
type Embedder interface {
	Dim() int
	Embed(sortedKeys []string) (vec []float32, ok bool)
	Fingerprint() uint64
}

// Resolve returns e, or the package default embedder when e is nil.
func Resolve(e Embedder) Embedder {
	if e != nil {
		return e
	}
	return Default()
}

// Default embedder parameters: 128 dimensions keeps hashing-collision noise
// well under the cosine thresholds discovery uses while staying cheap (512
// bytes per column), 3-grams balance specificity against short-value
// coverage, and the seed is arbitrary but fixed forever — changing it
// changes every persisted fingerprint.
const (
	DefaultDim   = 128
	defaultNGram = 3
	defaultSeed  = 0x67656e74656d62 // "gentemb"
)

var defaultEmbedder = NewNGramEmbedder(DefaultDim, defaultNGram, defaultSeed)

// Default returns the built-in hashed-n-gram embedder with fixed parameters.
// It is stateless and safe for concurrent use.
func Default() *NGramEmbedder { return defaultEmbedder }

// NGramEmbedder embeds a value as the bag of its character n-grams, each
// gram hashed to a (bucket, sign) pair in a dim-dimensional space — the
// classic hashing-trick random projection. Grams are weighted by inverse
// document frequency *within the column*: a gram occurring in every value
// (shared decoration, a common prefix, a uniform tag) carries almost no
// weight, so the column vector is built from what distinguishes the values
// — without this, fifty values sharing a three-character affix sum the affix
// grams coherently and the affix drowns the content. Value vectors are
// L2-normalized before summing into the column vector (so a long value does
// not drown the rest), and the column vector is normalized again, making
// cosine a plain dot product.
type NGramEmbedder struct {
	dim  int
	n    int
	seed uint64
}

// NewNGramEmbedder builds an n-gram embedder. dim must be positive; n is
// clamped to at least 2.
func NewNGramEmbedder(dim, n int, seed uint64) *NGramEmbedder {
	if dim <= 0 {
		dim = DefaultDim
	}
	if n < 2 {
		n = 2
	}
	return &NGramEmbedder{dim: dim, n: n, seed: seed}
}

// Dim returns the embedding dimension.
func (e *NGramEmbedder) Dim() int { return e.dim }

// Params returns the arguments NewNGramEmbedder rebuilds this embedder from —
// what a persisted index records beside its vectors.
func (e *NGramEmbedder) Params() (dim, n int, seed uint64) { return e.dim, e.n, e.seed }

// Fingerprint identifies the embedding family and parameters.
func (e *NGramEmbedder) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte("ngram"))
	writeU64(h, uint64(e.dim))
	writeU64(h, uint64(e.n))
	writeU64(h, e.seed)
	return h.Sum64()
}

// Embed builds each key's idf-weighted gram vector, normalizes it, and sums;
// the result is normalized again. Keys arrive sorted (EmbedColumn guarantees
// it) and the document frequencies depend only on the key set, so the float
// accumulation order — and therefore every output bit — is fixed.
func (e *NGramEmbedder) Embed(sortedKeys []string) ([]float32, bool) {
	// Pass 1: per-value unique gram hashes and their column-wide document
	// frequencies.
	grams := make([][]uint64, len(sortedKeys))
	df := make(map[uint64]int)
	for i, k := range sortedKeys {
		g := e.gramHashes(embedText(k))
		grams[i] = g
		for _, h := range g {
			df[h]++
		}
	}
	// Pass 2: accumulate idf-weighted unit value vectors.
	acc := make([]float64, e.dim)
	vbuf := make([]float64, e.dim)
	any := false
	for _, g := range grams {
		if len(g) == 0 {
			continue
		}
		for i := range vbuf {
			vbuf[i] = 0
		}
		var norm float64
		for _, h := range g {
			w := 1 / float64(df[h])
			bucket := int(h % uint64(e.dim))
			if h&(1<<63) != 0 {
				w = -w
			}
			vbuf[bucket] += w
		}
		for _, f := range vbuf {
			norm += f * f
		}
		if norm == 0 {
			continue
		}
		any = true
		inv := 1 / math.Sqrt(norm)
		for i, f := range vbuf {
			acc[i] += f * inv
		}
	}
	if !any {
		return nil, false
	}
	return normalize(acc)
}

// gramHashes returns the distinct hashes of one value's character n-grams,
// in first-occurrence order. The text is framed with sentinel bytes so
// boundary grams distinguish prefixes from interiors; "" yields none.
func (e *NGramEmbedder) gramHashes(text string) []uint64 {
	if text == "" {
		return nil
	}
	framed := "\x02" + text + "\x03"
	n := e.n
	if len(framed) < n {
		n = len(framed)
	}
	out := make([]uint64, 0, len(framed)-n+1)
	for i := 0; i+n <= len(framed); i++ {
		h := hashGram(framed[i:i+n], e.seed)
		dup := false
		for _, seen := range out {
			if seen == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}

// hashGram hashes one n-gram under the embedder seed: FNV over the bytes,
// then a splitmix64-style finalize so bucket and sign bits are independent.
func hashGram(gram string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(gram))
	x := h.Sum64() ^ seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// embedText strips the canonical-key kind markers (table.Value.Key) so a
// number and the string spelling of that number embed identically, and
// decorated string forms of it stay nearby in gram space.
func embedText(key string) string {
	switch {
	case strings.HasPrefix(key, "\x00#"), strings.HasPrefix(key, "\x00L"):
		return key[2:]
	case strings.HasPrefix(key, "s"):
		return key[1:]
	default:
		return ""
	}
}

// normalize converts a float64 accumulator to a unit float32 vector;
// ok=false on a zero vector.
func normalize(acc []float64) ([]float32, bool) {
	var norm float64
	for _, f := range acc {
		norm += f * f
	}
	if norm == 0 {
		return nil, false
	}
	inv := 1 / math.Sqrt(norm)
	vec := make([]float32, len(acc))
	for i, f := range acc {
		vec[i] = float32(f * inv)
	}
	return vec, true
}

// EmbedColumn embeds column c of t: its distinct non-null canonical values,
// sorted, through e. ok=false when the column has no embeddable content.
func EmbedColumn(e Embedder, t *table.Table, c int) ([]float32, bool) {
	set := t.ColumnSet(c)
	if len(set) == 0 {
		return nil, false
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return e.Embed(keys)
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}
