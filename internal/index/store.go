package index

import (
	"math"
	"runtime"
	"slices"

	"gent/internal/lake"
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
// the colID→column table (append-only per derived index; compaction may
// extend a copy). off has one entry per ID below the store's ID bound plus
// one; IDs at or past the bound have no postings here.
type postingStore struct {
	// fanOut is how many goroutines a large probe splits its query over
	// (core.Config.IndexShards). It never changes a result.
	fanOut int
	refs   []ColumnRef
	off    []uint32
	slab   []byte
	// nlists counts the IDs with postings — the compaction threshold's
	// denominator.
	nlists int
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

// columnIDs decodes id's postings to the column IDs the store's ref table
// resolves, nil when absent.
func (ps *postingStore) columnIDs(id uint32) []uint32 {
	b := ps.block(id)
	if len(b) == 0 {
		return nil
	}
	out := make([]uint32, 0, postingLen(b))
	forEachPosting(b, func(cid uint32) {
		if int(cid) < len(ps.refs) {
			out = append(out, cid)
		}
	})
	return out
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
	ps := &postingStore{fanOut: min(max(fanOut, 1), maxFanOut), refs: make([]ColumnRef, 0, colBase[len(tables)])}
	for _, t := range tables {
		for c := range t.Cols {
			ps.refs = append(ps.refs, ColumnRef{Table: t.Name, Col: c})
		}
	}

	// Scan: copy each table's column sets into one compact slice, so the
	// build holds the postings rather than the interned forms paged in for
	// them. Sets are sorted, so a set's last ID is its largest.
	sets := make([][]uint32, len(tables))
	sizes := make([]int, len(ps.refs))
	maxIDs := make([]uint32, len(tables))
	forEachTable(len(tables), workers, func(k int) {
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
	forEachTable(chunks, workers, func(ch int) {
		for id := ch * encodeChunk; id < min((ch+1)*encodeChunk, nids); id++ {
			if ids := list(id); len(ids) > 0 {
				ps.off[id+1] = uint32(postingSize(ids))
			}
		}
	})
	ps.nlists = nonZero(ps.off)
	ps.slab = make([]byte, prefixSum(ps.off))
	forEachTable(chunks, workers, func(ch int) {
		for id := ch * encodeChunk; id < min((ch+1)*encodeChunk, nids); id++ {
			if ids := list(id); len(ids) > 0 {
				appendPosting(ps.slab[ps.off[id]:ps.off[id]:ps.off[id+1]], ids)
			}
		}
	})

	colSizes := make(map[ColumnRef]int, len(ps.refs))
	for cid, ref := range ps.refs {
		colSizes[ref] = sizes[cid]
	}
	return &Inverted{dict: l.Dict(), base: ps, colSizes: colSizes}
}

// countIDsSharded is the fan-out probe: query IDs are partitioned by hash,
// each partition counted on its own goroutine into a private map, and the
// partials merged additively — the same totals a sequential probe produces.
// Override-layer IDs are counted inline first; they never reach the store.
func (ix *Inverted) countIDsSharded(query []uint32) map[ColumnRef]int {
	ps := ix.base
	counts := make(map[ColumnRef]int)
	parts := make([][]uint32, ps.fanOut)
	for _, id := range query {
		if ix.countOver(id, counts) {
			continue
		}
		s := shardOf(id, ps.fanOut)
		parts[s] = append(parts[s], id)
	}
	locals := make([]map[ColumnRef]int, ps.fanOut)
	forEachTable(ps.fanOut, runtime.GOMAXPROCS(0), func(s int) {
		if len(parts[s]) == 0 {
			return
		}
		m := make(map[ColumnRef]int)
		for _, id := range parts[s] {
			ps.count(id, m)
		}
		locals[s] = m
	})
	for _, m := range locals {
		for ref, c := range m {
			counts[ref] += c
		}
	}
	return counts
}

// flattenStore is compaction: one pass over the base's slab into a new one,
// copying every untouched block and re-encoding every overridden ID, with
// the ref table extended for columns the base never saw. The override
// layer's column IDs are resolved by ref and renumbered against the new ref
// table, where a column the base already has keeps its ID. The renumbered
// lists arrive unsorted, so each is sorted before encoding; overridden IDs
// are visited in ID order, so new colIDs are assigned deterministically.
func flattenStore(ps *postingStore, over map[uint32][]uint32, ref func(uint32) ColumnRef) *postingStore {
	ns := &postingStore{fanOut: ps.fanOut, refs: slices.Clone(ps.refs)}
	refIDs := make(map[ColumnRef]uint32, len(ns.refs))
	for cid, r := range ns.refs {
		refIDs[r] = uint32(cid)
	}
	overIDs := make([]uint32, 0, len(over))
	for id := range over {
		overIDs = append(overIDs, id)
	}
	slices.Sort(overIDs)
	nids := ps.ids()
	rewritten := make(map[uint32][]byte, len(over))
	for _, id := range overIDs {
		cids := over[id]
		nids = max(nids, int(id)+1)
		if len(cids) == 0 {
			rewritten[id] = nil
			continue
		}
		colIDs := make([]uint32, len(cids))
		for i, oc := range cids {
			r := ref(oc)
			cid, ok := refIDs[r]
			if !ok {
				cid = uint32(len(ns.refs))
				ns.refs = append(ns.refs, r)
				refIDs[r] = cid
			}
			colIDs[i] = cid
		}
		slices.Sort(colIDs)
		rewritten[id] = encodePosting(colIDs)
	}
	blockOf := func(id uint32) []byte {
		if b, ok := rewritten[id]; ok {
			return b
		}
		return ps.block(id)
	}
	ns.off = make([]uint32, nids+1)
	for id := 0; id < nids; id++ {
		ns.off[id+1] = uint32(len(blockOf(uint32(id))))
	}
	ns.nlists = nonZero(ns.off)
	ns.slab = make([]byte, 0, prefixSum(ns.off))
	for id := 0; id < nids; id++ {
		ns.slab = append(ns.slab, blockOf(uint32(id))...)
	}
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

// nonZero counts the non-zero entries of a.
func nonZero(a []uint32) int {
	n := 0
	for _, v := range a {
		if v > 0 {
			n++
		}
	}
	return n
}
