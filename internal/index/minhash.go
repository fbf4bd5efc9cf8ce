package index

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"

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
// sketched over their interned value IDs, and so are query columns.
//
// The index is incrementally maintainable: WithDelta inserts the
// added tables' sketches into an override layer and tombstones the removed
// tables' columns instead of rewriting the shared bucket maps; retrieval
// skips tombstoned columns, and when the dead weight grows past a fraction
// of the index the layers are compacted — tombstones dropped, overrides
// folded in — without re-sketching a single column (signatures determine
// their band keys).
type MinHashLSH struct {
	// dict translates query values to IDs at TopK time.
	dict    *table.Dict
	sigs    map[ColumnRef]signature
	buckets map[uint64][]ColumnRef
	// sigsOver/bucketsOver hold columns inserted (or re-inserted) since the
	// base was built; a column present in sigsOver supersedes any base
	// occurrence. dead tombstones base columns of removed tables. All maps
	// are immutable once the index is published.
	sigsOver    map[ColumnRef]signature
	bucketsOver map[uint64][]ColumnRef
	dead        map[ColumnRef]bool
	tables      []string
}

// BuildMinHashLSH sketches and buckets every column of the corpus over
// interned value IDs, interning the corpus first if needed. Sketching — the
// dominant cost — fans out per table on a bounded worker pool; bucket
// merging stays in corpus order so the index is identical to a sequential
// build.
func BuildMinHashLSH(l Corpus) *MinHashLSH {
	return buildMinHashLSH(l, runtime.GOMAXPROCS(0))
}

// tableSketches is one table's sketched columns, in column order.
type tableSketches struct {
	refs []ColumnRef
	sigs []signature
}

func sketchInterned(it *table.Interned) tableSketches {
	var ts tableSketches
	for c := range it.Table.Cols {
		ids := it.ColumnIDs(c)
		if len(ids) == 0 {
			continue
		}
		ts.refs = append(ts.refs, ColumnRef{Table: it.Table.Name, Col: c})
		ts.sigs = append(ts.sigs, sketchIDs(ids))
	}
	return ts
}

func buildMinHashLSH(l Corpus, workers int) *MinHashLSH {
	l.EnsureInterned()
	tables := l.Tables()
	parts := make([]tableSketches, len(tables))
	forEachTable(len(tables), workers, func(i int) {
		parts[i] = sketchInterned(l.Interned(tables[i].Name))
	})
	ix := &MinHashLSH{
		dict:    l.Dict(),
		sigs:    make(map[ColumnRef]signature),
		buckets: make(map[uint64][]ColumnRef),
		tables:  l.Names(),
	}
	for _, ts := range parts {
		for i, ref := range ts.refs {
			sig := ts.sigs[i]
			ix.sigs[ref] = sig
			for _, bk := range bandKeys(sig) {
				ix.buckets[bk] = append(ix.buckets[bk], ref)
			}
		}
	}
	return ix
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

// sigOf returns a column's live signature, preferring the override layer.
func (ix *MinHashLSH) sigOf(ref ColumnRef) signature {
	if ix.sigsOver != nil {
		if sig, ok := ix.sigsOver[ref]; ok {
			return sig
		}
	}
	return ix.sigs[ref]
}

// liveInBase reports whether a base-bucket occurrence of ref is current: not
// tombstoned, and not superseded by an override (whose banding lives in the
// override buckets).
func (ix *MinHashLSH) liveInBase(ref ColumnRef) bool {
	if ix.dead != nil && ix.dead[ref] {
		return false
	}
	if ix.sigsOver != nil {
		if _, over := ix.sigsOver[ref]; over {
			return false
		}
	}
	return true
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
		score := func(ref ColumnRef) {
			if seen[ref] {
				return
			}
			seen[ref] = true
			j := estimateJaccard(qsig, ix.sigOf(ref))
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
		}
		for _, bk := range bandKeys(qsig) {
			for _, ref := range ix.buckets[bk] {
				if ix.liveInBase(ref) {
					score(ref)
				}
			}
			if ix.bucketsOver != nil {
				for _, ref := range ix.bucketsOver[bk] {
					score(ref)
				}
			}
		}
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

// Covers reports whether every table of the corpus was present when this
// index was built or maintained. Stale entries for since-removed tables are
// tolerated (they are filtered against the live lake at query time), but a
// lake table absent from the sketches would silently never surface in
// first-stage retrieval.
func (ix *MinHashLSH) Covers(l Corpus) bool {
	have := make(map[string]bool, len(ix.tables))
	for _, name := range ix.tables {
		have[name] = true
	}
	for _, t := range l.Tables() {
		if !have[t.Name] {
			return false
		}
	}
	return true
}

// WithDelta returns a new index reflecting the receiver with the removed
// tables' sketches tombstoned and the added tables' columns sketched and
// inserted; the receiver is unchanged, and the two indexes share the base
// sketch and bucket storage. A replaced table appears in both slices, old
// interned form under removed, new under added (see Inverted.WithDelta).
func (ix *MinHashLSH) WithDelta(added, removed []*table.Interned) *MinHashLSH {
	nix := &MinHashLSH{
		dict:        ix.dict,
		sigs:        ix.sigs,
		buckets:     ix.buckets,
		sigsOver:    make(map[ColumnRef]signature, len(ix.sigsOver)+8*len(added)),
		bucketsOver: make(map[uint64][]ColumnRef, len(ix.bucketsOver)),
		dead:        make(map[ColumnRef]bool, len(ix.dead)),
	}
	for ref, sig := range ix.sigsOver {
		nix.sigsOver[ref] = sig
	}
	for bk, refs := range ix.bucketsOver {
		nix.bucketsOver[bk] = refs
	}
	for ref := range ix.dead {
		nix.dead[ref] = true
	}

	removedNames := make(map[string]bool, len(removed))
	stripOver := make(map[ColumnRef]bool)
	for _, it := range removed {
		removedNames[it.Table.Name] = true
		for c := range it.Table.Cols {
			ref := ColumnRef{Table: it.Table.Name, Col: c}
			if sig, over := nix.sigsOver[ref]; over {
				// The column lives in the override layer: remove it for real
				// (its band keys come straight from its signature).
				delete(nix.sigsOver, ref)
				stripOver[ref] = true
				for _, bk := range bandKeys(sig) {
					nix.bucketsOver[bk] = stripRefs(nix.bucketsOver[bk], stripOver)
				}
				delete(stripOver, ref)
			}
			if _, inBase := nix.sigs[ref]; inBase {
				// Tombstone any base occurrence too — an override was only
				// masking it, and deleting the override alone would
				// resurrect the stale base sketch.
				nix.dead[ref] = true
			}
		}
	}

	for _, it := range added {
		ts := sketchInterned(it)
		for i, ref := range ts.refs {
			sig := ts.sigs[i]
			delete(nix.dead, ref) // a re-added column is live via the override
			nix.sigsOver[ref] = sig
			for _, bk := range bandKeys(sig) {
				cur := nix.bucketsOver[bk]
				nw := make([]ColumnRef, len(cur), len(cur)+1)
				copy(nw, cur)
				nix.bucketsOver[bk] = append(nw, ref)
			}
		}
	}

	nix.tables = make([]string, 0, len(ix.tables)+len(added))
	inTables := make(map[string]bool, len(ix.tables)+len(added))
	for _, name := range ix.tables {
		if !removedNames[name] && !inTables[name] {
			nix.tables = append(nix.tables, name)
			inTables[name] = true
		}
	}
	for _, it := range added {
		if !inTables[it.Table.Name] {
			nix.tables = append(nix.tables, it.Table.Name)
			inTables[it.Table.Name] = true
		}
	}

	if len(nix.dead)+len(nix.sigsOver) > len(nix.sigs)/2+overCompactionSlack {
		return nix.compacted()
	}
	return nix
}

// stripRefs returns refs without the members of drop, copying only when a
// removal actually happens.
func stripRefs(refs []ColumnRef, drop map[ColumnRef]bool) []ColumnRef {
	kept := make([]ColumnRef, 0, len(refs))
	for _, ref := range refs {
		if !drop[ref] {
			kept = append(kept, ref)
		}
	}
	return kept
}

// compacted folds the override layer and tombstones into a fresh
// single-layer index. No column is re-sketched: live signatures determine
// their band keys.
func (ix *MinHashLSH) compacted() *MinHashLSH {
	flat := &MinHashLSH{
		dict:    ix.dict,
		sigs:    make(map[ColumnRef]signature, len(ix.sigs)+len(ix.sigsOver)),
		buckets: make(map[uint64][]ColumnRef, len(ix.buckets)),
		tables:  ix.tables,
	}
	for ref, sig := range ix.sigs {
		if ix.liveInBase(ref) {
			flat.sigs[ref] = sig
		}
	}
	for ref, sig := range ix.sigsOver {
		flat.sigs[ref] = sig
	}
	for ref, sig := range flat.sigs {
		for _, bk := range bandKeys(sig) {
			flat.buckets[bk] = append(flat.buckets[bk], ref)
		}
	}
	return flat
}

// flattened returns the single-layer view of the index — the receiver
// itself when it has no maintenance layers.
func (ix *MinHashLSH) flattened() *MinHashLSH {
	if len(ix.sigsOver) == 0 && len(ix.dead) == 0 {
		return ix
	}
	return ix.compacted()
}
