package index

import (
	"math/rand"
	"runtime"
	"sort"

	"gent/internal/embed"
	"gent/internal/lake"
	"gent/internal/table"
)

// Cosine-LSH parameters: bands × bitsPerBand signed random hyperplanes. A
// band matches when all of its sign bits agree, so with 8-bit bands the
// match probability at angular similarity p is p^8 per band, OR-ed over 24
// bands — ~90% recall at cosine 0.7, near-certain above 0.8, vanishing for
// unrelated columns. Exact cosine re-scoring after the bucket probe removes
// the false positives, so the bands only control recall and probe cost.
const (
	lshBands    = 24
	lshBandBits = 8
	// lshPlaneSeed fixes the hyperplane family forever: signatures from
	// different processes and sessions must agree bit-for-bit for persisted
	// indexes and delta maintenance to interoperate.
	lshPlaneSeed = 0x636f734c5348 // "cosLSH"
)

// hyperplanes returns the bands×bits Gaussian hyperplanes for dimension dim,
// deterministically derived from the fixed family seed.
func hyperplanes(dim int) [][]float32 {
	r := rand.New(rand.NewSource(lshPlaneSeed))
	planes := make([][]float32, lshBands*lshBandBits)
	for i := range planes {
		p := make([]float32, dim)
		for d := range p {
			p[d] = float32(r.NormFloat64())
		}
		planes[i] = p
	}
	return planes
}

// cosineBandKeys returns the banded signature function for dimension dim:
// per band, one bit per hyperplane (the sign of the projection), tagged with
// the band index so bands never collide with each other in the shared bucket
// map.
func cosineBandKeys(dim int) func([]float32) []uint64 {
	planes := hyperplanes(dim)
	return func(vec []float32) []uint64 {
		keys := make([]uint64, lshBands)
		for b := 0; b < lshBands; b++ {
			var bits uint64
			for r := 0; r < lshBandBits; r++ {
				if dot(planes[b*lshBandBits+r], vec) >= 0 {
					bits |= 1 << r
				}
			}
			keys[b] = uint64(b)<<56 | bits
		}
		return keys
	}
}

// dot is the float64-accumulated inner product of two float32 vectors; on
// unit vectors it is the cosine.
func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// CosineLSH indexes every lake column's embedding vector under banded
// hyperplane signatures — the semantic counterpart of MinHashLSH over the
// same layered core (banded): built in parallel, maintained incrementally
// through WithDelta over lake diffs, and persisted with dictionary- and
// embedder-fingerprint verification. What is its own is the embedding, the
// hyperplane band keys and the exact-cosine rescoring.
type CosineLSH struct {
	// dict pins the index to the lake state it was built against; vectors do
	// not depend on IDs (they embed canonical value text), but persisting
	// under the dictionary fingerprint keeps semantic.gob provably paired
	// with the same save the other substrates came from.
	dict *table.Dict
	// emb re-embeds added tables in WithDelta and query columns at search
	// time. It is nil after loading a file whose embedder was external
	// (vector-file) — such an index can be caught up only after
	// AttachEmbedder presents an embedder with the matching fingerprint.
	emb   embed.Embedder
	embFP uint64
	dim   int
	*banded[[]float32]
}

// BuildCosineLSH embeds and buckets every column of the corpus under e (nil
// for the default embedder).
func BuildCosineLSH(l *lake.Snapshot, e embed.Embedder) *CosineLSH {
	e = embed.Resolve(e)
	// Vectors embed canonical value text, not IDs — but interning first means
	// the dictionary this index is persisted beside reflects the corpus it
	// was built from, so the stamped fingerprint actually pins the pairing.
	l.EnsureInterned()
	tables := l.Tables()
	embedAt := func(i int) columnPayloads[[]float32] { return embedTable(e, tables[i]) }
	return &CosineLSH{
		dict:   l.Dict(),
		emb:    e,
		embFP:  e.Fingerprint(),
		dim:    e.Dim(),
		banded: buildBanded(cosineBandKeys(e.Dim()), l.Names(), runtime.GOMAXPROCS(0), embedAt),
	}
}

func embedTable(e embed.Embedder, t *table.Table) columnPayloads[[]float32] {
	var cols columnPayloads[[]float32]
	for c := range t.Cols {
		vec, ok := embed.EmbedColumn(e, t, c)
		if !ok {
			continue
		}
		cols.refs = append(cols.refs, ColumnRef{Table: t.Name, Col: c})
		cols.vals = append(cols.vals, vec)
	}
	return cols
}

// CosineMatch is one semantic search hit: a lake column and its exact cosine
// similarity to the query vector.
type CosineMatch struct {
	Ref    ColumnRef
	Cosine float64
}

// SearchVector probes the banded buckets with q (a unit vector of the
// index's dimension) and re-scores every candidate by exact cosine,
// returning matches with cosine ≥ minCos sorted by cosine descending (ties
// by table then column), at most k (k ≤ 0 means unlimited). Output order and
// contents are independent of bucket layout, so a delta-maintained index
// answers identically to a fresh rebuild.
func (ix *CosineLSH) SearchVector(q []float32, minCos float64, k int) []CosineMatch {
	if len(q) != ix.dim {
		return nil
	}
	seen := make(map[ColumnRef]bool)
	var out []CosineMatch
	ix.probe(ix.bandKeys(q), func(ref ColumnRef) {
		if seen[ref] {
			return
		}
		seen[ref] = true
		if cos := dot(q, ix.payload(ref)); cos >= minCos {
			out = append(out, CosineMatch{Ref: ref, Cosine: cos})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cosine != out[j].Cosine {
			return out[i].Cosine > out[j].Cosine
		}
		if out[i].Ref.Table != out[j].Ref.Table {
			return out[i].Ref.Table < out[j].Ref.Table
		}
		return out[i].Ref.Col < out[j].Ref.Col
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SearchColumn embeds column c of query under the index's embedder and
// searches; it returns nil when the index has no embedder attached
// (externally-embedded file loaded without its vectors) or the column has no
// embeddable content.
func (ix *CosineLSH) SearchColumn(query *table.Table, c int, minCos float64, k int) []CosineMatch {
	if ix.emb == nil {
		return nil
	}
	q, ok := embed.EmbedColumn(ix.emb, query, c)
	if !ok {
		return nil
	}
	return ix.SearchVector(q, minCos, k)
}

// Dim returns the embedding dimension the index was built at.
func (ix *CosineLSH) Dim() int { return ix.dim }

// Dict returns the dictionary the index was built beside (may be nil for a
// hand-built corpus without one).
func (ix *CosineLSH) Dict() *table.Dict { return ix.dict }

// RebindDict points the index at d for persistence pairing; vectors never
// reference IDs, so any dictionary the session adopted the original into is
// valid. No-op when either side is nil.
func (ix *CosineLSH) RebindDict(d *table.Dict) {
	if ix.dict != nil && d != nil {
		ix.dict = d
	}
}

// Embeddable reports whether the index can embed queries and deltas — false
// only for a file loaded without its external embedder.
func (ix *CosineLSH) Embeddable() bool { return ix.emb != nil }

// Embedder returns the embedding function stored vectors came from, or nil
// for a file loaded without its external embedder (see AttachEmbedder).
func (ix *CosineLSH) Embedder() embed.Embedder { return ix.emb }

// EmbedderFingerprint identifies the embedder every stored vector came from.
func (ix *CosineLSH) EmbedderFingerprint() uint64 { return ix.embFP }

// AttachEmbedder supplies the embedder to an index loaded without one; it
// refuses (returns false) unless the fingerprints match, since mixing
// embedding functions would make stored and query vectors incomparable.
func (ix *CosineLSH) AttachEmbedder(e embed.Embedder) bool {
	if e == nil || e.Fingerprint() != ix.embFP {
		return false
	}
	ix.emb = e
	return true
}

// WithDelta returns a new index reflecting the receiver with the removed
// tables' vectors tombstoned and the added tables' columns embedded and
// inserted; the receiver is unchanged and shares its base storage with the
// result (see banded.withDelta). It returns nil when no embedder is attached
// — the caller must rebuild.
func (ix *CosineLSH) WithDelta(added, removed []*table.Interned) *CosineLSH {
	if ix.emb == nil {
		return nil
	}
	nix := *ix
	nix.banded = ix.withDelta(func(it *table.Interned) columnPayloads[[]float32] {
		return embedTable(ix.emb, it.Table)
	}, added, removed)
	return &nix
}
