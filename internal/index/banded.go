package index

import (
	"context"

	"gent/internal/par"
	"gent/internal/table"
)

// banded is the layered banded-LSH core behind MinHashLSH: one signature per
// lake column filed under the band keys it hashes to, so a probe with a
// query's band keys visits every column sharing at least one band with it.
//
// The index is incrementally maintainable. withDelta inserts the added
// tables' columns into an override layer and tombstones the removed tables'
// base columns instead of rewriting the shared base maps; probes skip
// tombstoned and superseded base entries; and once the dead weight passes
// len(base)/2 + overCompactionSlack the layers are folded back into one base
// without re-sketching a column (a signature determines its band keys).
// All maps are immutable once the index is published, so any number of
// derived indexes share the base storage.
type banded struct {
	base    map[ColumnRef]signature
	buckets map[uint64][]ColumnRef
	// over/bucketsOver hold columns inserted (or re-inserted) since the base
	// was built; a column in over supersedes any base occurrence. dead
	// tombstones base columns of removed tables.
	over        map[ColumnRef]signature
	bucketsOver map[uint64][]ColumnRef
	dead        map[ColumnRef]bool
}

// overCompactionSlack is the layered core's dead weight (override entries
// plus tombstones, past half the base) at which withDelta folds the layers
// back into one base. Compaction rebuilds every bucket once, so it must be
// rare; the slack bounds what probes pay meanwhile for skipping dead base
// entries.
//
// The core keeps its layers, unlike the inverted index (store.go), because
// here they pay for themselves: a delta rebuilds no bucket map. On a
// gentd_churn-shaped lake (3 032 tables, 19 477 columns; 24 deltas of 8 Puts
// and 8 Drops; 2 CPUs), a one-layer delta that rebuilt the bucket maps took
// about 79 ms and allocated 20.9 MB a delta, against 1.3 ms and 0.72 MB for
// the layered one.
const overCompactionSlack = 64

// columnSketches is one table's indexable columns and their signatures, in
// column order.
type columnSketches struct {
	refs []ColumnRef
	sigs []signature
}

// buildBanded computes the columns of each of n tables — the dominant cost —
// on up to workers goroutines, then files them in corpus order, so the index
// is identical to a sequential build.
func buildBanded(n, workers int, columns func(i int) columnSketches) *banded {
	parts := make([]columnSketches, n)
	par.For(context.Background(), n, workers, func(_, i int) {
		parts[i] = columns(i)
	})
	b := &banded{
		base:    make(map[ColumnRef]signature),
		buckets: make(map[uint64][]ColumnRef),
	}
	for _, cols := range parts {
		for i, ref := range cols.refs {
			b.base[ref] = cols.sigs[i]
			for _, bk := range bandKeys(cols.sigs[i]) {
				b.buckets[bk] = append(b.buckets[bk], ref)
			}
		}
	}
	return b
}

// bandedOver returns the single-layer index whose base is sigs itself, each
// column filed under the band keys its signature determines.
func bandedOver(sigs map[ColumnRef]signature, nbuckets int) *banded {
	b := &banded{
		base:    sigs,
		buckets: make(map[uint64][]ColumnRef, nbuckets),
	}
	for ref, sig := range sigs {
		for _, bk := range bandKeys(sig) {
			b.buckets[bk] = append(b.buckets[bk], ref)
		}
	}
	return b
}

// sigOf returns a column's live signature, preferring the override
// layer.
func (b *banded) sigOf(ref ColumnRef) signature {
	if p, ok := b.over[ref]; ok {
		return p
	}
	return b.base[ref]
}

// liveInBase reports whether a base occurrence of ref is current: not
// tombstoned, and not superseded by an override (whose banding lives in the
// override buckets).
func (b *banded) liveInBase(ref ColumnRef) bool {
	if b.dead[ref] {
		return false
	}
	_, over := b.over[ref]
	return !over
}

// probe visits every live column filed under any of keys — base buckets
// filtered by liveness, then override buckets. A column sharing several bands
// with the query is visited once per shared band.
func (b *banded) probe(keys []uint64, visit func(ColumnRef)) {
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

// withDelta returns a new index reflecting the receiver with the removed
// tables' columns tombstoned and the added tables' columns sketched and
// inserted; the receiver is unchanged, and the two share the base signature
// and bucket storage. A replaced table appears in both slices, old interned
// form under removed, new under added (see Inverted.WithDelta).
func (b *banded) withDelta(added, removed []*table.Interned) *banded {
	nb := &banded{
		base:        b.base,
		buckets:     b.buckets,
		over:        make(map[ColumnRef]signature, len(b.over)+8*len(added)),
		bucketsOver: make(map[uint64][]ColumnRef, len(b.bucketsOver)),
		dead:        make(map[ColumnRef]bool, len(b.dead)),
	}
	for ref, sig := range b.over {
		nb.over[ref] = sig
	}
	for bk, refs := range b.bucketsOver {
		nb.bucketsOver[bk] = refs
	}
	for ref := range b.dead {
		nb.dead[ref] = true
	}

	for _, it := range removed {
		for c := range it.Table.Cols {
			ref := ColumnRef{Table: it.Table.Name, Col: c}
			if sig, over := nb.over[ref]; over {
				// The column lives in the override layer: remove it for real
				// (its band keys come straight from its signature).
				delete(nb.over, ref)
				for _, bk := range bandKeys(sig) {
					nb.bucketsOver[bk] = stripRefs(nb.bucketsOver[bk], ref)
				}
			}
			if _, inBase := nb.base[ref]; inBase {
				// Tombstone any base occurrence too — an override was only
				// masking it, and deleting the override alone would
				// resurrect the stale base signature.
				nb.dead[ref] = true
			}
		}
	}

	for _, it := range added {
		cols := sketchInterned(it)
		for i, ref := range cols.refs {
			sig := cols.sigs[i]
			delete(nb.dead, ref) // a re-added column is live via the override
			nb.over[ref] = sig
			for _, bk := range bandKeys(sig) {
				cur := nb.bucketsOver[bk]
				nw := make([]ColumnRef, len(cur), len(cur)+1)
				copy(nw, cur)
				nb.bucketsOver[bk] = append(nw, ref)
			}
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
// single-layer index. No column is re-sketched: live signatures determine
// their band keys.
func (b *banded) compacted() *banded {
	live := make(map[ColumnRef]signature, len(b.base)+len(b.over))
	for ref, sig := range b.base {
		if b.liveInBase(ref) {
			live[ref] = sig
		}
	}
	for ref, sig := range b.over {
		live[ref] = sig
	}
	return bandedOver(live, len(b.buckets))
}
