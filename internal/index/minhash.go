package index

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"

	"gent/internal/lake"
	"gent/internal/table"
)

// MinHash parameters: numHashes signatures split into bands rows each for
// LSH bucketing. 32 hashes × 4-row bands gives high recall at Jaccard ≥ 0.3,
// which is what a first-stage retriever needs (Set Similarity re-verifies
// exactly afterwards).
const (
	numHashes = 32
	bandRows  = 4
	numBands  = numHashes / bandRows
)

// signature is a column's MinHash sketch.
type signature [numHashes]uint64

// hashID is the MinHash permutation family over interned value IDs: a
// splitmix64-style finalizer over the (seed, id) pair. Mixing the ID's fixed
// 8 bytes instead of the value's text is what makes interned sketching cheap
// — the value string was hashed exactly once, at intern time. ID sets are in
// bijection with value sets, so the sketches estimate the value sets' Jaccard
// similarities.
func hashID(id uint32, seed uint64) uint64 {
	x := seed<<32 ^ uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func sketchIDs(ids []uint32) signature {
	var sig signature
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, id := range ids {
		for i := 0; i < numHashes; i++ {
			if h := hashID(id, uint64(i)); h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// estimateJaccard estimates Jaccard similarity from two sketches.
func estimateJaccard(a, b signature) float64 {
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(numHashes)
}

// MinHashLSH indexes every lake column's MinHash sketch with banded LSH. It
// plays Starmie's role: a scalable, recall-oriented top-k table retriever
// over a large lake whose output Set Similarity verifies exactly. Columns are
// sketched over their interned value IDs, and so are query columns. Storage,
// probing and incremental maintenance are the shared layered core (banded);
// what is MinHash's own is the sketch, its band keys and TopK's scoring.
type MinHashLSH struct {
	// dict translates query values to IDs at TopK time.
	dict *table.Dict
	*banded[signature]
}

// BuildMinHashLSH sketches and buckets every column of the corpus over
// interned value IDs, interning the corpus first if needed.
func BuildMinHashLSH(l *lake.Snapshot) *MinHashLSH {
	return buildMinHashLSH(l, runtime.GOMAXPROCS(0))
}

func sketchInterned(it *table.Interned) columnPayloads[signature] {
	var cols columnPayloads[signature]
	for c := range it.Table.Cols {
		ids := it.ColumnIDs(c)
		if len(ids) == 0 {
			continue
		}
		cols.refs = append(cols.refs, ColumnRef{Table: it.Table.Name, Col: c})
		cols.vals = append(cols.vals, sketchIDs(ids))
	}
	return cols
}

func buildMinHashLSH(l *lake.Snapshot, workers int) *MinHashLSH {
	l.EnsureInterned()
	tables := l.Tables()
	sketch := func(i int) columnPayloads[signature] {
		return sketchInterned(l.Interned(tables[i].Name))
	}
	return &MinHashLSH{dict: l.Dict(), banded: buildBanded(bandKeys, l.Names(), workers, sketch)}
}

func bandKeys(sig signature) []uint64 {
	keys := make([]uint64, numBands)
	for b := 0; b < numBands; b++ {
		h := fnv.New64a()
		for r := 0; r < bandRows; r++ {
			v := sig[b*bandRows+r]
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		keys[b] = uint64(b)<<56 ^ h.Sum64()>>8
	}
	return keys
}

// Ranked is a retrieved table with its relevance score (sum over query
// columns of the best estimated column Jaccard).
type Ranked struct {
	Table string
	Score float64
}

// querySketch sketches one query column. Its distinct values are resolved
// through a query-scoped overlay — values the lake has never seen get
// transient overlay IDs (the shared dictionary stays untouched) and correctly
// depress the estimated similarities.
func querySketch(query *table.Table, qc int, ov *table.Overlay) (signature, bool) {
	seen := make(map[uint32]bool)
	ids := make([]uint32, 0, len(query.Rows))
	for _, r := range query.Rows {
		v := r[qc]
		if v.IsNull() {
			continue
		}
		id := ov.InternValue(v)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return signature{}, false
	}
	return sketchIDs(ids), true
}

// TopK retrieves the k lake tables most relevant to the query table: for
// each query column, LSH candidates are scored by estimated Jaccard, and a
// table's score is the sum of its best per-query-column estimates.
func (ix *MinHashLSH) TopK(query *table.Table, k int) []Ranked {
	ov := table.NewOverlay(ix.dict)
	best := make(map[string]map[int]float64) // table -> query col -> best jaccard
	for qc := range query.Cols {
		qsig, ok := querySketch(query, qc, ov)
		if !ok {
			continue
		}
		seen := make(map[ColumnRef]bool)
		ix.probe(bandKeys(qsig), func(ref ColumnRef) {
			if seen[ref] {
				return
			}
			seen[ref] = true
			j := estimateJaccard(qsig, ix.payload(ref))
			if j == 0 {
				return
			}
			m := best[ref.Table]
			if m == nil {
				m = make(map[int]float64)
				best[ref.Table] = m
			}
			if j > m[qc] {
				m[qc] = j
			}
		})
	}
	out := make([]Ranked, 0, len(best))
	for name, cols := range best {
		score := 0.0
		for _, j := range cols {
			score += j
		}
		out = append(out, Ranked{Table: name, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Table < out[j].Table
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Dict returns the value dictionary the index sketches through.
func (ix *MinHashLSH) Dict() *table.Dict { return ix.dict }

// RebindDict points the index at d, which must assign every ID the
// signatures were sketched from identically; see Inverted.RebindDict.
func (ix *MinHashLSH) RebindDict(d *table.Dict) {
	if d != nil {
		ix.dict = d
	}
}

// WithDelta returns a new index reflecting the receiver with the removed
// tables' sketches tombstoned and the added tables' columns sketched and
// inserted; the receiver is unchanged and shares its base storage with the
// result (see banded.withDelta).
func (ix *MinHashLSH) WithDelta(added, removed []*table.Interned) *MinHashLSH {
	return &MinHashLSH{dict: ix.dict, banded: ix.withDelta(sketchInterned, added, removed)}
}
