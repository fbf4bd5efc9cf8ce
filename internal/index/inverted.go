// Package index implements the discovery substrates Gen-T retrieves
// candidates with: an exact value-level inverted index supporting JOSIE-style
// set-overlap search over lake columns, and a MinHash-LSH index that stands
// in for Starmie's learned retriever as the scalable top-k first stage on
// large lakes.
//
// Both substrates are built over the lake's interned (value-ID) form, and
// each has exactly one representation: the inverted index keeps compressed
// postings in one slab indexed by dictionary ID, and MinHash hashes an ID's 8
// bytes instead of the value's text, so each distinct value is hashed once at
// intern time and never re-hashed per build or per probe. The LSH keeps its
// signatures in a layered banded core (banded.go) that takes deltas without
// re-sketching. IndexSet bundles the two with their dictionary and epoch
// stamp, and persists the inverted index stamped with both. Tests check the
// inverted index against a brute-force overlap count over the corpus'
// column sets, and the layered core against fresh builds along random
// maintenance programs.
package index

import (
	"slices"
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
// Postings live as compressed blocks in one slab indexed by value ID
// (store.go).
//
// The index is incrementally maintainable: WithDelta derives a new index
// with tables added or removed without rescanning the rest of the corpus.
// Maintained indexes layer an override map over the shared immutable base
// (searches merge the two), and the layers are compacted back into one base
// when the override grows past a fraction of it — so a chain of small deltas
// stays as fast to search as a fresh build.
type Inverted struct {
	// dict is the value dictionary the postings are keyed under; nil for an
	// index LoadIndexSetDir read until IndexSet.Bind binds it.
	dict *table.Dict
	// savedLen and savedFP are, for an index read from disk, the
	// Dict.PrefixStamp it was saved under: the dictionary it binds to must
	// verify them.
	savedLen int
	savedFP  uint64
	// base is the compressed posting store, immutable and shared by every
	// index derived from it until a compaction copies it.
	base *postingStore
	// idOver overrides the base per ID for incrementally maintained
	// indexes: a present entry (even an empty slice) wins over the base.
	// Entries are column IDs resolved by ref — 4 bytes a posting rather than
	// a ColumnRef's 24, so the layer's memory stays near the compressed
	// base's between compactions. Immutable once the index is published.
	idOver map[uint32][]uint32
	// extra extends the base's column table with the columns added since
	// the base was built: column ID len(base.refs)+i is extra[i]. Shared
	// with derived indexes, which only ever append to a clipped copy.
	extra []ColumnRef
	// colSizes caches each column's distinct-value count for containment
	// scoring.
	colSizes map[ColumnRef]int
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
func (ix *Inverted) Shards() int { return ix.base.fanOut }

// ref resolves a column ID of the override layer.
func (ix *Inverted) ref(cid uint32) ColumnRef {
	if n := uint32(len(ix.base.refs)); cid >= n {
		return ix.extra[cid-n]
	}
	return ix.base.refs[cid]
}

// countOver adds id's override-layer postings into counts, reporting false
// when the base holds id's postings instead.
func (ix *Inverted) countOver(id uint32, counts map[ColumnRef]int) bool {
	if ix.idOver == nil {
		return false
	}
	cids, ok := ix.idOver[id]
	for _, cid := range cids {
		counts[ix.ref(cid)]++
	}
	return ok
}

// countID adds one ID's live postings (override layer over base) into
// counts.
func (ix *Inverted) countID(id uint32, counts map[ColumnRef]int) {
	if !ix.countOver(id, counts) {
		ix.base.count(id, counts)
	}
}

// countIDs produces the overlap counts for a resolved query ID set, fanning
// out across goroutines for large probes. Counting is additive, so both paths
// yield identical totals.
func (ix *Inverted) countIDs(query []uint32) map[ColumnRef]int {
	if ix.base.fanOut > 1 && len(query) >= shardProbeFanOut {
		return ix.countIDsSharded(query)
	}
	counts := make(map[ColumnRef]int)
	for _, id := range query {
		ix.countID(id, counts)
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
	for _, t := range l.Tables() {
		for c := range t.Cols {
			if _, ok := ix.colSizes[ColumnRef{Table: t.Name, Col: c}]; !ok {
				return false
			}
		}
		if _, ok := ix.colSizes[ColumnRef{Table: t.Name, Col: len(t.Cols)}]; ok {
			return false // indexed with more columns than the table now has
		}
	}
	return true
}

// overCompactionSlack is the override-layer size (relative to the base, plus
// a small absolute allowance) past which WithDelta flattens the two layers
// back into one base; the same allowance over half the base's column table
// bounds the added columns. Compaction copies the whole index once, so it
// must be rare; the slack fraction bounds the steady-state search overhead
// (one extra map lookup per probed ID) times the memory held by overridden
// entries.
const overCompactionSlack = 64

// WithDelta returns a new index reflecting the receiver with the removed
// tables' postings stripped and the added tables' postings inserted; the
// receiver is unchanged, and the two indexes share the storage of untouched
// postings. A replaced table (same name, new contents) appears in both
// slices: its old interned form under removed, its new one under added.
//
// The removed forms must be the ones the receiver was built or maintained
// with — they tell the delta exactly which IDs the table had contributed.
func (ix *Inverted) WithDelta(added, removed []*table.Interned) *Inverted {
	removedNames := make(map[string]bool, len(removed))
	touched := make(map[uint32]bool)
	for _, it := range removed {
		removedNames[it.Table.Name] = true
		for c := range it.Table.Cols {
			for _, id := range it.ColumnIDs(c) {
				touched[id] = true
			}
		}
	}

	nix := &Inverted{
		dict:     ix.dict,
		base:     ix.base,
		extra:    slices.Clip(ix.extra),
		colSizes: make(map[ColumnRef]int, len(ix.colSizes)),
	}
	over := make(map[uint32][]uint32, len(ix.idOver)+len(touched))
	for id, cids := range ix.idOver {
		over[id] = cids
	}
	for ref, n := range ix.colSizes {
		if !removedNames[ref.Table] {
			nix.colSizes[ref] = n
		}
	}

	// Slices created by this call are exclusively owned and may be appended
	// to in place; anything inherited from the receiver (base or previous
	// override layer) is shared and must be copied on first touch.
	owned := make(map[uint32]bool, len(touched))

	// Removals first: rewrite every touched ID's postings without the
	// removed tables' columns, copying (never mutating) the shared slices.
	for id := range touched {
		cur, ok := over[id]
		if !ok {
			cur = ix.base.columnIDs(id)
		}
		kept := make([]uint32, 0, len(cur))
		for _, cid := range cur {
			if !removedNames[nix.ref(cid).Table] {
				kept = append(kept, cid)
			}
		}
		over[id] = kept
		owned[id] = true
	}
	// Then additions: each added column takes the next column ID, and each
	// current postings slice is copied once and appended in place afterwards.
	for _, it := range added {
		t := it.Table
		for c := range t.Cols {
			ref := ColumnRef{Table: t.Name, Col: c}
			cid := uint32(len(nix.base.refs) + len(nix.extra))
			nix.extra = append(nix.extra, ref)
			ids := it.ColumnIDs(c)
			nix.colSizes[ref] = len(ids)
			for _, id := range ids {
				if owned[id] {
					over[id] = append(over[id], cid)
					continue
				}
				cur, ok := over[id]
				if !ok {
					cur = ix.base.columnIDs(id)
				}
				nw := make([]uint32, len(cur), len(cur)+len(added))
				copy(nw, cur)
				over[id] = append(nw, cid)
				owned[id] = true
			}
		}
	}

	// Removed tables' columns stay in extra until a compaction drops them,
	// so a churn that keeps re-touching the same IDs compacts on extra's
	// growth too.
	if len(over) > ix.base.nlists/2+overCompactionSlack ||
		len(nix.extra) > len(ix.base.refs)/2+overCompactionSlack {
		nix.base, nix.extra = flattenStore(ix.base, over, nix.ref), nil
	} else {
		nix.idOver = over
	}
	return nix
}

// compactedBase returns the base with any override layer folded in — what
// persistence writes.
func (ix *Inverted) compactedBase() *postingStore {
	if ix.idOver == nil {
		return ix.base
	}
	return flattenStore(ix.base, ix.idOver, ix.ref)
}
