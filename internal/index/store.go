package index

import (
	"context"
	"math"
	"runtime"
	"slices"

	"gent/internal/lake"
	"gent/internal/par"
	"gent/internal/table"
)

// The posting store of the inverted index: every value ID's posting list is
// one compressed block (posting.go), and all blocks sit in one byte slab in
// ID order, addressed by an offset array over dictionary IDs — the block of
// id is slab[off[id]:off[id+1]], empty when the ID has no postings. Column
// references are interned once into a dense colID space (refs), so each
// block is a sorted uint32 list — delta-varint or bitmap encoded — rather
// than a slice of 24-byte structs.
//
// A build is a counting sort: count each ID's postings, prefix-sum the
// counts, scatter colIDs in corpus order (so every list comes out
// ascending), then encode ranges of IDs in parallel straight into the slab.
// It allocates nothing per ID. The slab is also the payload of the index
// file (persist_inverted.go), so a load adopts it by slicing one read.
//
// A delta is one merge pass into a new store (withDelta): runs of untouched
// blocks are copied whole, and each ID the delta touches is re-encoded from
// its old list minus the removed columns plus the added ones. A removed
// column's colID is freed, and added columns take freed colIDs before the
// table grows — a returning column its own — so refs holds no column twice
// and never outgrows the most columns the lake has held at once.
//
// Large probes fan out: query IDs are partitioned by hash over fanOut
// goroutines. Results do not depend on the fan-out width: counting is
// additive and order-independent, and rankOverlaps sorts deterministically.

// shardSeed keys the ID→partition hash of a fanned-out probe. It is distinct
// from every MinHash permutation seed (those are small integers) so the
// partitioning is uncorrelated with sketch minima.
const shardSeed = 0x53484152

// shardProbeFanOut is the query ID count above which a probe fans out across
// goroutines instead of probing inline. Small probes stay single-threaded:
// the per-goroutine map merge costs more than it saves.
const shardProbeFanOut = 512

// maxFanOut caps the probe fan-out width; a wider request builds at this
// width.
const maxFanOut = 1 << 16

// encodeChunk is how many IDs one build task sizes or encodes.
const encodeChunk = 4096

func shardOf(id uint32, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hashID(id, shardSeed) % uint64(n))
}

// postingStore is the compressed posting store under an Inverted. refs is
// the colID→column table and sizes each column's distinct-value count by
// colID; a negative size marks a free colID, whose column was removed and
// which owns no posting. off has one entry per ID below the store's ID bound
// plus one; IDs at or past the bound have no postings here. A store is
// immutable once built.
type postingStore struct {
	// fanOut is how many goroutines a large probe splits its query over
	// (core.Config.IndexShards). It never changes a result.
	fanOut int
	refs   []ColumnRef
	sizes  []int
	off    []uint32
	slab   []byte
}

// block returns id's compressed posting block, empty when absent.
func (ps *postingStore) block(id uint32) []byte {
	if int(id) >= len(ps.off)-1 {
		return nil
	}
	return ps.slab[ps.off[id]:ps.off[id+1]]
}

// ids is the store's ID bound: every ID with postings is below it.
func (ps *postingStore) ids() int { return max(len(ps.off)-1, 0) }

// count adds id's postings into counts.
func (ps *postingStore) count(id uint32, counts map[ColumnRef]int) {
	forEachPosting(ps.block(id), func(cid uint32) {
		if int(cid) < len(ps.refs) {
			counts[ps.refs[cid]]++
		}
	})
}

// BuildInvertedSharded indexes every distinct non-null value ID of every
// table column, interning the corpus first if needed; shards is the probe
// fan-out width (≤ 1 means none, capped at 65 536) and does not change any
// result. Tables are scanned concurrently on a bounded worker pool and their
// postings placed in corpus order, so the result is identical to a
// sequential build.
//
// The pool has two workers per CPU: on a paged lake the scan waits in
// segment-file reads, which a second worker overlaps (a 1 500-table lake
// paged at a quarter of its footprint, 2 CPUs: 31 → 27 ms per build).
func BuildInvertedSharded(l *lake.Snapshot, shards int) *Inverted {
	return buildInvertedSharded(l, shards, 2*runtime.GOMAXPROCS(0))
}

func buildInvertedSharded(l *lake.Snapshot, fanOut, workers int) *Inverted {
	l.EnsureInterned()
	tables := l.Tables()

	// Column IDs are assigned in corpus order up front, so scattering in
	// corpus order leaves every ID's list ascending.
	colBase := make([]uint32, len(tables)+1)
	for i, t := range tables {
		colBase[i+1] = colBase[i] + uint32(len(t.Cols))
	}
	ps := &postingStore{
		fanOut: min(max(fanOut, 1), maxFanOut),
		refs:   make([]ColumnRef, 0, colBase[len(tables)]),
		sizes:  make([]int, colBase[len(tables)]),
	}
	for _, t := range tables {
		for c := range t.Cols {
			ps.refs = append(ps.refs, ColumnRef{Table: t.Name, Col: c})
		}
	}

	// Scan: copy each table's column sets into one compact slice, so the
	// build holds the postings rather than the interned forms paged in for
	// them. Sets are sorted, so a set's last ID is its largest.
	sets := make([][]uint32, len(tables))
	sizes := ps.sizes
	maxIDs := make([]uint32, len(tables))
	par.For(context.Background(), len(tables), workers, func(_, k int) {
		it := l.Interned(tables[k].Name)
		n := 0
		for c := range tables[k].Cols {
			n += len(it.ColumnIDs(c))
		}
		flat := make([]uint32, 0, n)
		for c := range tables[k].Cols {
			ids := it.ColumnIDs(c)
			sizes[colBase[k]+uint32(c)] = len(ids)
			if len(ids) > 0 {
				maxIDs[k] = max(maxIDs[k], ids[len(ids)-1])
			}
			flat = append(flat, ids...)
		}
		sets[k] = flat
	})

	// Count, prefix-sum, scatter: start[id] becomes the first slot of id's
	// list in post, and colIDs land in corpus order.
	nids := 0
	if len(tables) > 0 {
		nids = int(slices.Max(maxIDs)) + 1
	}
	start := make([]uint32, nids+1)
	for _, flat := range sets {
		for _, id := range flat {
			start[id+1]++
		}
	}
	post := make([]uint32, prefixSum(start))
	next := slices.Clone(start[:nids])
	for k, flat := range sets {
		for c := range tables[k].Cols {
			colID := colBase[k] + uint32(c)
			n := sizes[colID]
			for _, id := range flat[:n] {
				post[next[id]] = colID
				next[id]++
			}
			flat = flat[n:]
		}
	}
	list := func(id int) []uint32 { return post[start[id]:start[id+1]] }

	// Encode: size every block, prefix-sum the sizes into off, then fill the
	// slab in place, ID ranges in parallel.
	ps.off = make([]uint32, nids+1)
	chunks := (nids + encodeChunk - 1) / encodeChunk
	par.For(context.Background(), chunks, workers, func(_, ch int) {
		for id := ch * encodeChunk; id < min((ch+1)*encodeChunk, nids); id++ {
			if ids := list(id); len(ids) > 0 {
				ps.off[id+1] = uint32(postingSize(ids))
			}
		}
	})
	ps.slab = make([]byte, prefixSum(ps.off))
	par.For(context.Background(), chunks, workers, func(_, ch int) {
		for id := ch * encodeChunk; id < min((ch+1)*encodeChunk, nids); id++ {
			if ids := list(id); len(ids) > 0 {
				appendPosting(ps.slab[ps.off[id]:ps.off[id]:ps.off[id+1]], ids)
			}
		}
	})

	return &Inverted{dict: l.Dict(), ps: ps}
}

// countSharded is the fan-out probe: query IDs are partitioned by hash, each
// partition counted on its own goroutine into a private map, and the
// partials merged additively — the same totals a sequential probe produces.
func (ps *postingStore) countSharded(query []uint32) map[ColumnRef]int {
	parts := make([][]uint32, ps.fanOut)
	for _, id := range query {
		s := shardOf(id, ps.fanOut)
		parts[s] = append(parts[s], id)
	}
	locals := make([]map[ColumnRef]int, ps.fanOut)
	par.For(context.Background(), ps.fanOut, runtime.GOMAXPROCS(0), func(_, s int) {
		if len(parts[s]) == 0 {
			return
		}
		m := make(map[ColumnRef]int)
		for _, id := range parts[s] {
			ps.count(id, m)
		}
		locals[s] = m
	})
	counts := make(map[ColumnRef]int)
	for _, m := range locals {
		for ref, c := range m {
			counts[ref] += c
		}
	}
	return counts
}

// noCol stands in for a colID in a delta's posting keys: the key only marks
// its ID as touched by a removed column.
const noCol = math.MaxUint32

// withDelta returns the store with the removed tables' columns and postings
// dropped and the added tables' inserted, in one merge pass; the receiver is
// unchanged.
func (ps *postingStore) withDelta(added, removed []*table.Interned) *postingStore {
	const (
		gone = 1 << iota // the table is among the removed
		back             // the table is among the added
	)
	names := make(map[string]uint8, len(added)+len(removed))
	for _, it := range removed {
		names[it.Table.Name] |= gone
	}
	for _, it := range added {
		names[it.Table.Name] |= back
	}

	// Free the removed columns' colIDs, and find the free colID of each
	// added column the table held before. A table's refs are mostly
	// adjacent, so a name is looked up once per run.
	ns := &postingStore{fanOut: ps.fanOut, refs: slices.Clone(ps.refs), sizes: slices.Clone(ps.sizes)}
	drop := make([]bool, len(ps.refs))
	own := make(map[ColumnRef]uint32)
	name, flags := "", names[""]
	for cid, ref := range ps.refs {
		if ref.Table != name {
			name, flags = ref.Table, names[ref.Table]
		}
		if flags&gone != 0 && ns.sizes[cid] >= 0 {
			drop[cid], ns.sizes[cid] = true, -1
		}
		if flags&back != 0 && ns.sizes[cid] < 0 {
			own[ref] = uint32(cid)
		}
	}

	// The delta's postings as id<<32|colID keys, sorted: a noCol key for
	// each ID a removed column held, and the added columns' postings. An
	// added column takes its own colID, else the lowest free one, else a
	// new one; the own ones are claimed first.
	var keys []uint64
	for _, it := range removed {
		for c := range it.Table.Cols {
			for _, id := range it.ColumnIDs(c) {
				keys = append(keys, uint64(id)<<32|noCol)
			}
		}
	}
	var cids []uint32
	for _, it := range added {
		for c := range it.Table.Cols {
			cid, ok := own[ColumnRef{Table: it.Table.Name, Col: c}]
			if ok {
				ns.sizes[cid] = len(it.ColumnIDs(c))
			} else {
				cid = noCol
			}
			cids = append(cids, cid)
		}
	}
	free, k := 0, 0
	for _, it := range added {
		for c := range it.Table.Cols {
			ids, cid := it.ColumnIDs(c), cids[k]
			k++
			if cid == noCol {
				for free < len(ns.sizes) && ns.sizes[free] >= 0 {
					free++
				}
				if free == len(ns.sizes) {
					ns.refs, ns.sizes = append(ns.refs, ColumnRef{}), append(ns.sizes, 0)
				}
				ns.refs[free], ns.sizes[free], cid = ColumnRef{Table: it.Table.Name, Col: c}, len(ids), uint32(free)
			}
			for _, id := range ids {
				keys = append(keys, uint64(id)<<32|uint64(cid))
			}
		}
	}
	slices.Sort(keys)

	// Re-encode each touched ID's list into patch, in ID order.
	var (
		touched []uint32
		bounds  = []int{0} // touched[i]'s block is patch[bounds[i]:bounds[i+1]]
		patch   []byte
		list    []uint32
		freed   int // the old blocks' bytes of the touched IDs
	)
	for i := 0; i < len(keys); {
		id := uint32(keys[i] >> 32)
		old := ps.block(id)
		freed += len(old)
		list = list[:0]
		forEachPosting(old, func(cid uint32) {
			if !drop[cid] {
				list = append(list, cid)
			}
		})
		for ; i < len(keys) && uint32(keys[i]>>32) == id; i++ {
			if cid := uint32(keys[i]); cid != noCol {
				list = append(list, cid)
			}
		}
		if len(list) > 0 {
			slices.Sort(list)
			patch = appendPosting(patch, list)
		}
		touched = append(touched, id)
		bounds = append(bounds, len(patch))
	}

	// Merge: untouched runs copied whole, touched IDs from patch.
	nold, nids := ps.ids(), ps.ids()
	if len(touched) > 0 {
		nids = max(nids, int(touched[len(touched)-1])+1)
	}
	if uint64(len(ps.slab)-freed+len(patch)) > math.MaxUint32 {
		panic("index: inverted index exceeds 2^32 slab bytes")
	}
	ns.off = make([]uint32, nids+1)
	ns.slab = make([]byte, 0, len(ps.slab)-freed+len(patch))
	from := 0 // the first ID not yet written
	copyTo := func(to int) {
		lo, hi := min(from, nold), min(to, nold)
		shift := uint32(len(ns.slab)) - ps.off[lo] // modulo 2^32
		ns.slab = append(ns.slab, ps.slab[ps.off[lo]:ps.off[hi]]...)
		for id := from; id < to; id++ {
			ns.off[id+1] = ps.off[min(id+1, nold)] + shift
		}
	}
	for i, id := range touched {
		copyTo(int(id))
		ns.slab = append(ns.slab, patch[bounds[i]:bounds[i+1]]...)
		ns.off[id+1] = uint32(len(ns.slab))
		from = int(id) + 1
	}
	copyTo(nids)
	return ns
}

// prefixSum turns counts into running totals in place — a[i] becomes the
// sum of a[:i+1] — and returns the total. The store addresses postings and
// slab bytes with 32-bit offsets (the file format's too), so a total of
// 2^32 or more is a corpus it cannot hold, tens of billions of cells past
// anything the resident tier serves; the build stops there rather than wrap.
func prefixSum(a []uint32) uint32 {
	var total uint64
	for i, v := range a {
		total += uint64(v)
		if total > math.MaxUint32 {
			panic("index: inverted index exceeds 2^32 postings or slab bytes")
		}
		a[i] = uint32(total)
	}
	return uint32(total)
}
