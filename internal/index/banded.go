package index

import "gent/internal/table"

// banded is the layered banded-LSH core behind MinHashLSH and CosineLSH: one
// payload per lake column (a MinHash signature, an embedding vector) filed
// under the band keys the payload hashes to, so a probe with a query's band
// keys visits every column sharing at least one band with it.
//
// The index is incrementally maintainable. withDelta inserts the added
// tables' columns into an override layer and tombstones the removed tables'
// base columns instead of rewriting the shared base maps; probes skip
// tombstoned and superseded base entries; and once the dead weight passes
// len(base)/2 + overCompactionSlack (inverted.go) the layers are folded back into one base
// without recomputing a single payload (a payload determines its band keys).
// All maps are immutable once the index is published, so any number of
// derived indexes share the base storage.
type banded[P any] struct {
	bandKeys func(P) []uint64
	base     map[ColumnRef]P
	buckets  map[uint64][]ColumnRef
	// over/bucketsOver hold columns inserted (or re-inserted) since the base
	// was built; a column in over supersedes any base occurrence. dead
	// tombstones base columns of removed tables.
	over        map[ColumnRef]P
	bucketsOver map[uint64][]ColumnRef
	dead        map[ColumnRef]bool
	// tables names the tables present when the index was built or maintained.
	tables []string
}

// columnPayloads is one table's indexable columns and their payloads, in
// column order.
type columnPayloads[P any] struct {
	refs []ColumnRef
	vals []P
}

// buildBanded computes every table's columns — the dominant cost — on up to
// workers goroutines, then files them in corpus order, so the index is
// identical to a sequential build.
func buildBanded[P any](bandKeys func(P) []uint64, tables []string, workers int, columns func(i int) columnPayloads[P]) *banded[P] {
	parts := make([]columnPayloads[P], len(tables))
	forEachTable(len(tables), workers, func(i int) {
		parts[i] = columns(i)
	})
	b := &banded[P]{
		bandKeys: bandKeys,
		base:     make(map[ColumnRef]P),
		buckets:  make(map[uint64][]ColumnRef),
		tables:   tables,
	}
	for _, cols := range parts {
		for i, ref := range cols.refs {
			b.base[ref] = cols.vals[i]
			for _, bk := range bandKeys(cols.vals[i]) {
				b.buckets[bk] = append(b.buckets[bk], ref)
			}
		}
	}
	return b
}

// bandedOver returns the single-layer index whose base is payloads itself,
// each column filed under the band keys its payload determines.
func bandedOver[P any](bandKeys func(P) []uint64, payloads map[ColumnRef]P, nbuckets int, tables []string) *banded[P] {
	b := &banded[P]{
		bandKeys: bandKeys,
		base:     payloads,
		buckets:  make(map[uint64][]ColumnRef, nbuckets),
		tables:   tables,
	}
	for ref, p := range payloads {
		for _, bk := range bandKeys(p) {
			b.buckets[bk] = append(b.buckets[bk], ref)
		}
	}
	return b
}

// payload returns a column's live payload, preferring the override layer.
func (b *banded[P]) payload(ref ColumnRef) P {
	if p, ok := b.over[ref]; ok {
		return p
	}
	return b.base[ref]
}

// liveInBase reports whether a base occurrence of ref is current: not
// tombstoned, and not superseded by an override (whose banding lives in the
// override buckets).
func (b *banded[P]) liveInBase(ref ColumnRef) bool {
	if b.dead[ref] {
		return false
	}
	_, over := b.over[ref]
	return !over
}

// probe visits every live column filed under any of keys — base buckets
// filtered by liveness, then override buckets. A column sharing several bands
// with the query is visited once per shared band.
func (b *banded[P]) probe(keys []uint64, visit func(ColumnRef)) {
	for _, bk := range keys {
		for _, ref := range b.buckets[bk] {
			if b.liveInBase(ref) {
				visit(ref)
			}
		}
		for _, ref := range b.bucketsOver[bk] {
			visit(ref)
		}
	}
}

func (b *banded[P]) tableSet() map[string]bool {
	have := make(map[string]bool, len(b.tables))
	for _, name := range b.tables {
		have[name] = true
	}
	return have
}

// Covers reports whether every table of the corpus was present when this
// index was built or maintained. Stale entries for since-removed tables are
// tolerated (they are filtered against the live lake at query time), but a
// lake table absent from the index would silently never surface.
func (b *banded[P]) Covers(l Corpus) bool {
	have := b.tableSet()
	for _, t := range l.Tables() {
		if !have[t.Name] {
			return false
		}
	}
	return true
}

// withDelta returns a new index reflecting the receiver with the removed
// tables' columns tombstoned and the added tables' columns — as columns
// computes them — inserted; the receiver is unchanged, and the two share the
// base payload and bucket storage. A replaced table appears in both slices,
// old interned form under removed, new under added (see Inverted.WithDelta).
func (b *banded[P]) withDelta(columns func(*table.Interned) columnPayloads[P], added, removed []*table.Interned) *banded[P] {
	nb := &banded[P]{
		bandKeys:    b.bandKeys,
		base:        b.base,
		buckets:     b.buckets,
		over:        make(map[ColumnRef]P, len(b.over)+8*len(added)),
		bucketsOver: make(map[uint64][]ColumnRef, len(b.bucketsOver)),
		dead:        make(map[ColumnRef]bool, len(b.dead)),
	}
	for ref, p := range b.over {
		nb.over[ref] = p
	}
	for bk, refs := range b.bucketsOver {
		nb.bucketsOver[bk] = refs
	}
	for ref := range b.dead {
		nb.dead[ref] = true
	}

	removedNames := make(map[string]bool, len(removed))
	for _, it := range removed {
		removedNames[it.Table.Name] = true
		for c := range it.Table.Cols {
			ref := ColumnRef{Table: it.Table.Name, Col: c}
			if p, over := nb.over[ref]; over {
				// The column lives in the override layer: remove it for real
				// (its band keys come straight from its payload).
				delete(nb.over, ref)
				for _, bk := range nb.bandKeys(p) {
					nb.bucketsOver[bk] = stripRefs(nb.bucketsOver[bk], ref)
				}
			}
			if _, inBase := nb.base[ref]; inBase {
				// Tombstone any base occurrence too — an override was only
				// masking it, and deleting the override alone would
				// resurrect the stale base payload.
				nb.dead[ref] = true
			}
		}
	}

	for _, it := range added {
		cols := columns(it)
		for i, ref := range cols.refs {
			p := cols.vals[i]
			delete(nb.dead, ref) // a re-added column is live via the override
			nb.over[ref] = p
			for _, bk := range nb.bandKeys(p) {
				cur := nb.bucketsOver[bk]
				nw := make([]ColumnRef, len(cur), len(cur)+1)
				copy(nw, cur)
				nb.bucketsOver[bk] = append(nw, ref)
			}
		}
	}

	nb.tables = make([]string, 0, len(b.tables)+len(added))
	inTables := make(map[string]bool, len(b.tables)+len(added))
	for _, name := range b.tables {
		if !removedNames[name] && !inTables[name] {
			nb.tables = append(nb.tables, name)
			inTables[name] = true
		}
	}
	for _, it := range added {
		if !inTables[it.Table.Name] {
			nb.tables = append(nb.tables, it.Table.Name)
			inTables[it.Table.Name] = true
		}
	}

	if len(nb.dead)+len(nb.over) > len(nb.base)/2+overCompactionSlack {
		return nb.compacted()
	}
	return nb
}

// stripRefs returns a copy of refs without drop; the input may be shared
// with an older index and is never modified.
func stripRefs(refs []ColumnRef, drop ColumnRef) []ColumnRef {
	kept := make([]ColumnRef, 0, len(refs))
	for _, ref := range refs {
		if ref != drop {
			kept = append(kept, ref)
		}
	}
	return kept
}

// compacted folds the override layer and tombstones into a fresh
// single-layer index. No payload is recomputed: live payloads determine
// their band keys.
func (b *banded[P]) compacted() *banded[P] {
	live := make(map[ColumnRef]P, len(b.base)+len(b.over))
	for ref, p := range b.base {
		if b.liveInBase(ref) {
			live[ref] = p
		}
	}
	for ref, p := range b.over {
		live[ref] = p
	}
	return bandedOver(b.bandKeys, live, len(b.buckets), b.tables)
}

// flattened returns the single-layer view of the index — what persistence
// writes; the receiver itself when it has no maintenance layers.
func (b *banded[P]) flattened() *banded[P] {
	if len(b.over) == 0 && len(b.dead) == 0 {
		return b
	}
	return b.compacted()
}
