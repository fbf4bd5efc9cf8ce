package index

import (
	"encoding/binary"
	"runtime"
	"sort"

	"gent/internal/lake"
)

// The posting store of the inverted index: postings live as compressed
// blocks (posting.go) in N value-ID-hash shards. Column references are
// interned once into a dense colID space (refs/refIDs), so each posting
// block is a sorted uint32 list — delta-varint or bitmap encoded — rather
// than a slice of 24-byte structs. Shards partition the ID space by hash,
// which keeps every shard's build, persistence file, and query probe
// independent: builds merge per-shard on a bounded pool, SaveDir writes one
// file per shard, and large probes fan out one goroutine per shard.
//
// Query results do not depend on the shard count: counting is additive and
// order-independent, and rankOverlaps sorts deterministically.

// shardSeed keys the ID→shard hash. It is distinct from every MinHash
// permutation seed (those are small integers) so shard routing is
// uncorrelated with sketch minima.
const shardSeed = 0x53484152

// shardProbeFanOut is the query ID count above which a sharded probe fans
// out across shards on goroutines instead of probing inline. Small probes
// stay single-threaded: the per-goroutine map merge costs more than it saves.
const shardProbeFanOut = 512

// shardBuildChunk is how many tables a sharded build scans per round. The
// build holds at most one chunk's per-shard pair lists in memory at a time,
// so peak build memory tracks the chunk, not the corpus.
const shardBuildChunk = 512

func shardOf(id uint32, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hashID(id, shardSeed) % uint64(n))
}

// invShard is one shard: the compressed posting blocks of every value ID
// that hashes here.
type invShard struct {
	lists map[uint32][]byte
}

// shardedForm is the compressed, sharded posting store under an Inverted.
// refs is the colID→column table (append-only per derived index; compaction
// may extend a copy), refIDs its inverse.
type shardedForm struct {
	n      int
	refs   []ColumnRef
	refIDs map[ColumnRef]uint32
	shards []invShard
	// nlists counts posting lists across all shards — the compaction
	// threshold's denominator.
	nlists int
}

// block returns id's compressed posting block, nil when absent.
func (sh *shardedForm) block(id uint32) []byte {
	return sh.shards[shardOf(id, sh.n)].lists[id]
}

// count adds id's postings into counts.
func (sh *shardedForm) count(id uint32, counts map[ColumnRef]int) {
	forEachPosting(sh.block(id), func(cid uint32) {
		if int(cid) < len(sh.refs) {
			counts[sh.refs[cid]]++
		}
	})
}

// materialize decodes id's postings to column references, nil when absent.
func (sh *shardedForm) materialize(id uint32) []ColumnRef {
	b := sh.block(id)
	if len(b) == 0 {
		return nil
	}
	out := make([]ColumnRef, 0, postingLen(b))
	forEachPosting(b, func(cid uint32) {
		if int(cid) < len(sh.refs) {
			out = append(out, sh.refs[cid])
		}
	})
	return out
}

// postingBuilder accumulates one ID's colIDs — fed in ascending order by the
// chunked build — directly in delta-varint form, and picks the final
// encoding (delta vs bitmap) when the list is sealed. Holding the varint
// bytes instead of a []uint32 keeps the transient build state near the final
// index size.
type postingBuilder struct {
	buf   []byte // uvarint(first), then uvarint gaps
	first uint32
	last  uint32
	n     int
}

func (pb *postingBuilder) add(colID uint32) {
	if pb.n == 0 {
		pb.first = colID
		pb.buf = binary.AppendUvarint(pb.buf, uint64(colID))
	} else {
		pb.buf = binary.AppendUvarint(pb.buf, uint64(colID-pb.last))
	}
	pb.last = colID
	pb.n++
}

// finish seals the list into a posting block, choosing the same encoding
// encodePosting would.
func (pb *postingBuilder) finish() []byte {
	if pb.n == 0 {
		return []byte{postingDelta, 0}
	}
	span := uint64(pb.last-pb.first) + 1
	deltaSize := 1 + uvarintLen(uint64(pb.n)) + len(pb.buf)
	bitmapSize := 1 + uvarintLen(uint64(pb.n)) + uvarintLen(uint64(pb.first)) +
		uvarintLen(span) + int((span+7)/8)
	if bitmapSize < deltaSize {
		b := make([]byte, 0, bitmapSize)
		b = append(b, postingBitmap)
		b = binary.AppendUvarint(b, uint64(pb.n))
		b = binary.AppendUvarint(b, uint64(pb.first))
		b = binary.AppendUvarint(b, span)
		bm := make([]byte, (span+7)/8)
		walkDeltaPayload(pb.buf, pb.n, func(id uint32) {
			off := id - pb.first
			bm[off/8] |= 1 << (off % 8)
		})
		return append(b, bm...)
	}
	b := make([]byte, 0, deltaSize)
	b = append(b, postingDelta)
	b = binary.AppendUvarint(b, uint64(pb.n))
	return append(b, pb.buf...)
}

// BuildInvertedSharded indexes every distinct non-null value ID of every
// table column into the given number of shards (≤ 1 means one), interning
// the corpus first if needed. Tables are scanned concurrently on a bounded
// worker pool and merged in corpus order, so the result is identical to a
// sequential build.
func BuildInvertedSharded(l *lake.Snapshot, shards int) *Inverted {
	return buildInvertedSharded(l, shards, runtime.GOMAXPROCS(0))
}

func buildInvertedSharded(l *lake.Snapshot, nshards, workers int) *Inverted {
	if nshards < 1 {
		nshards = 1
	}
	l.EnsureInterned()
	tables := l.Tables()

	// Column IDs are assigned in corpus order up front, so per-ID colID
	// streams arrive strictly increasing and the builders can delta-encode
	// on the fly.
	sh := &shardedForm{n: nshards}
	colBase := make([]uint32, len(tables))
	var next uint32
	for i, t := range tables {
		colBase[i] = next
		next += uint32(len(t.Cols))
	}
	sh.refs = make([]ColumnRef, 0, next)
	sh.refIDs = make(map[ColumnRef]uint32, next)
	for _, t := range tables {
		for c := range t.Cols {
			ref := ColumnRef{Table: t.Name, Col: c}
			sh.refIDs[ref] = uint32(len(sh.refs))
			sh.refs = append(sh.refs, ref)
		}
	}
	colSizes := make(map[ColumnRef]int, next)

	type pair struct{ id, colID uint32 }
	builders := make([]map[uint32]*postingBuilder, nshards)
	for s := range builders {
		builders[s] = make(map[uint32]*postingBuilder)
	}

	for lo := 0; lo < len(tables); lo += shardBuildChunk {
		hi := lo + shardBuildChunk
		if hi > len(tables) {
			hi = len(tables)
		}
		// Phase 1: scan the chunk's tables concurrently, routing each
		// (value ID, colID) pair to its shard's bucket.
		parts := make([][][]pair, hi-lo)
		sizes := make([][]int, hi-lo)
		forEachTable(hi-lo, workers, func(k int) {
			t := tables[lo+k]
			it := l.Interned(t.Name)
			ps := make([][]pair, nshards)
			ns := make([]int, len(t.Cols))
			for c := range t.Cols {
				colID := colBase[lo+k] + uint32(c)
				ids := it.ColumnIDs(c)
				ns[c] = len(ids)
				for _, id := range ids {
					s := shardOf(id, nshards)
					ps[s] = append(ps[s], pair{id, colID})
				}
			}
			parts[k] = ps
			sizes[k] = ns
		})
		for k := lo; k < hi; k++ {
			t := tables[k]
			for c := range t.Cols {
				colSizes[ColumnRef{Table: t.Name, Col: c}] = sizes[k-lo][c]
			}
		}
		// Phase 2: merge the chunk into the per-shard builders, shards in
		// parallel (each shard's builder map is touched by one goroutine).
		forEachTable(nshards, workers, func(s int) {
			b := builders[s]
			for k := range parts {
				for _, p := range parts[k][s] {
					pb := b[p.id]
					if pb == nil {
						pb = &postingBuilder{}
						b[p.id] = pb
					}
					pb.add(p.colID)
				}
			}
		})
	}

	sh.shards = make([]invShard, nshards)
	forEachTable(nshards, workers, func(s int) {
		lists := make(map[uint32][]byte, len(builders[s]))
		for id, pb := range builders[s] {
			lists[id] = pb.finish()
		}
		sh.shards[s] = invShard{lists: lists}
		builders[s] = nil
	})
	for s := range sh.shards {
		sh.nlists += len(sh.shards[s].lists)
	}

	return &Inverted{dict: l.Dict(), base: sh, colSizes: colSizes}
}

// countIDsSharded is the fan-out probe: query IDs are partitioned by shard,
// each shard counted on its own goroutine into a private map, and the
// partials merged additively — the same totals a sequential probe produces.
// Override-layer IDs are counted inline first; they never reach the shards.
func (ix *Inverted) countIDsSharded(query []uint32) map[ColumnRef]int {
	sh := ix.base
	counts := make(map[ColumnRef]int)
	parts := make([][]uint32, sh.n)
	for _, id := range query {
		if ix.idOver != nil {
			if refs, ok := ix.idOver[id]; ok {
				for _, ref := range refs {
					counts[ref]++
				}
				continue
			}
		}
		s := shardOf(id, sh.n)
		parts[s] = append(parts[s], id)
	}
	locals := make([]map[ColumnRef]int, sh.n)
	forEachTable(sh.n, runtime.GOMAXPROCS(0), func(s int) {
		if len(parts[s]) == 0 {
			return
		}
		m := make(map[ColumnRef]int)
		for _, id := range parts[s] {
			sh.count(id, m)
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

// flattenSharded is compaction: a copy of the base's shard maps
// (sharing the immutable blocks) with every overridden ID re-encoded, and
// the ref table extended for columns the base never saw. The override
// layer's refs arrive unsorted relative to colIDs, so each rewritten list is
// sorted before encoding.
func flattenSharded(sh *shardedForm, over map[uint32][]ColumnRef) *shardedForm {
	ns := &shardedForm{
		n:      sh.n,
		refs:   append([]ColumnRef(nil), sh.refs...),
		refIDs: make(map[ColumnRef]uint32, len(sh.refIDs)),
	}
	for ref, id := range sh.refIDs {
		ns.refIDs[ref] = id
	}
	ns.shards = make([]invShard, sh.n)
	for s := range ns.shards {
		lists := make(map[uint32][]byte, len(sh.shards[s].lists))
		for id, b := range sh.shards[s].lists {
			lists[id] = b
		}
		ns.shards[s] = invShard{lists: lists}
	}
	for id, refs := range over {
		s := shardOf(id, ns.n)
		if len(refs) == 0 {
			delete(ns.shards[s].lists, id)
			continue
		}
		colIDs := make([]uint32, len(refs))
		for i, ref := range refs {
			cid, ok := ns.refIDs[ref]
			if !ok {
				cid = uint32(len(ns.refs))
				ns.refs = append(ns.refs, ref)
				ns.refIDs[ref] = cid
			}
			colIDs[i] = cid
		}
		sort.Slice(colIDs, func(i, j int) bool { return colIDs[i] < colIDs[j] })
		ns.shards[s].lists[id] = encodePosting(colIDs)
	}
	for s := range ns.shards {
		ns.nlists += len(ns.shards[s].lists)
	}
	return ns
}
