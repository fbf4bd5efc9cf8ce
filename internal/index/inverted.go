// Package index implements the discovery substrates Gen-T retrieves
// candidates with: an exact value-level inverted index supporting JOSIE-style
// set-overlap search over lake columns, and a MinHash-LSH index that stands
// in for Starmie's learned retriever as the scalable top-k first stage on
// large lakes.
//
// Both substrates are built over the lake's interned (value-ID) form, and
// MinHash hashes an ID's 8 bytes instead of the value's text, so each
// distinct value is hashed once at intern time and never re-hashed per build
// or per probe. The inverted index has exactly one representation: compressed
// postings in one slab indexed by dictionary ID, which a build writes by
// counting sort and a delta rewrites in one merge pass (store.go). The LSH
// keeps its signatures in a layered banded core (banded.go) that takes deltas
// without re-sketching. IndexSet bundles the two with their dictionary and
// epoch stamp, and persists the inverted index stamped with both. Tests check
// the inverted index against a brute-force overlap count over the corpus'
// column sets and against fresh builds along random delta chains, and the
// layered core against fresh builds along random maintenance programs.
package index

import (
	"sort"

	"gent/internal/lake"
	"gent/internal/table"
)

// ColumnRef addresses one column of one lake table.
type ColumnRef struct {
	Table string
	Col   int
}

// DefaultShards is the probe fan-out width BuildInverted uses, and the
// default of core.Config.IndexShards.
const DefaultShards = 8

// Inverted maps each distinct cell value ID to the lake columns containing
// it, enabling exact set-overlap search (the JOSIE role in the paper).
// Postings live as compressed blocks in one slab indexed by value ID, beside
// the column table and each column's distinct-value count (store.go).
//
// The index is immutable and incrementally maintainable: WithDelta derives a
// new index with tables added or removed in one merge pass over the slab,
// without rescanning the rest of the corpus, so a maintained index has the
// same form, and searches as fast, as a fresh build.
type Inverted struct {
	// dict is the value dictionary the postings are keyed under; nil for an
	// index LoadIndexSetDir read until IndexSet.Bind binds it.
	dict *table.Dict
	// savedLen and savedFP are, for an index read from disk, the
	// Dict.PrefixStamp it was saved under: the dictionary it binds to must
	// verify them.
	savedLen int
	savedFP  uint64
	// ps holds the postings, the column table and the column sizes.
	ps *postingStore
}

// BuildInverted is BuildInvertedSharded at DefaultShards.
func BuildInverted(l *lake.Snapshot) *Inverted {
	return BuildInvertedSharded(l, DefaultShards)
}

// Overlap holds one column's exact overlap with a query value set.
type Overlap struct {
	Ref ColumnRef
	// Count is |query ∩ column|.
	Count int
	// Containment is Count / |query| — how much of the query column the lake
	// column covers.
	Containment float64
}

// Dict returns the value dictionary the index is keyed under (nil for an
// index read from disk and not yet bound).
func (ix *Inverted) Dict() *table.Dict { return ix.dict }

// Shards returns the index's probe fan-out width.
func (ix *Inverted) Shards() int { return ix.ps.fanOut }

// countIDs produces the overlap counts for a resolved query ID set, fanning
// out across goroutines for large probes. Counting is additive, so both paths
// yield identical totals.
func (ix *Inverted) countIDs(query []uint32) map[ColumnRef]int {
	if ix.ps.fanOut > 1 && len(query) >= shardProbeFanOut {
		return ix.ps.countSharded(query)
	}
	counts := make(map[ColumnRef]int)
	for _, id := range query {
		ix.ps.count(id, counts)
	}
	return counts
}

// SearchIDs returns, for a query's distinct value IDs, every lake column
// overlapping it, ranked by overlap count (ties by table name and column for
// determinism). The IDs must come from the index's dictionary, or an overlay
// of it: an overlay's transient IDs — values the lake has never seen — have
// no postings but still count into the containment denominator.
func (ix *Inverted) SearchIDs(query []uint32) []Overlap {
	return rankOverlaps(ix.countIDs(query), len(query))
}

// rankOverlaps turns overlap counts into the deterministic ranking.
func rankOverlaps(counts map[ColumnRef]int, qlen int) []Overlap {
	out := make([]Overlap, 0, len(counts))
	for ref, c := range counts {
		o := Overlap{Ref: ref, Count: c}
		if qlen > 0 {
			o.Containment = float64(c) / float64(qlen)
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Ref.Table != out[j].Ref.Table {
			return out[i].Ref.Table < out[j].Ref.Table
		}
		return out[i].Ref.Col < out[j].Ref.Col
	})
	return out
}

// Covers reports whether every table of the corpus appears in the index with
// its current column count. A persisted index may serve a lake it covers —
// stale entries for removed tables are filtered against the live lake at
// query time — but a table missing from the index (or indexed under an old
// schema) would silently never be retrieved correctly. Value-level edits to
// an already-indexed column are not detectable here; the set's epoch stamp,
// which the session checks on injection, is.
func (ix *Inverted) Covers(l *lake.Snapshot) bool {
	live := make(map[ColumnRef]bool, len(ix.ps.refs))
	for cid, ref := range ix.ps.refs {
		if ix.ps.sizes[cid] >= 0 {
			live[ref] = true
		}
	}
	for _, t := range l.Tables() {
		for c := range t.Cols {
			if !live[ColumnRef{Table: t.Name, Col: c}] {
				return false
			}
		}
		if live[ColumnRef{Table: t.Name, Col: len(t.Cols)}] {
			return false // indexed with more columns than the table now has
		}
	}
	return true
}

// WithDelta returns a new index reflecting the receiver with the removed
// tables' postings stripped and the added tables' postings inserted; the
// receiver is unchanged. A replaced table (same name, new contents) appears
// in both slices: its old interned form under removed, its new one under
// added.
//
// The removed forms must be the ones the receiver was built or maintained
// with — they tell the delta exactly which IDs the table had contributed.
func (ix *Inverted) WithDelta(added, removed []*table.Interned) *Inverted {
	return &Inverted{dict: ix.dict, ps: ix.ps.withDelta(added, removed)}
}
