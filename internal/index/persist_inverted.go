package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gent/internal/lake"
	"gent/internal/table"
)

// Inverted-index persistence (format v6) is one flat file, inverted.bin,
// read in one read and checksummed end to end:
//
//	"GENTINVX"   8-byte magic
//	version      uint32 LE     invertedFormatVersion
//	seq, chain   uint64 LE     the set's Epoch (zero: unstamped)
//	dict n, fp   uint64 LE     the Dict.PrefixStamp the IDs were assigned
//	                           under: IDs 1..n, hashing to fp
//	fan-out      uint32 LE     the probe fan-out width (Inverted.Shards)
//	nrefs        uvarint, then per colID: table name str, column uvarint,
//	             size uvarint (the column's distinct count + 1; 0 for a
//	             free colID, whose column was removed)
//	nids         uvarint, then nids+1 offsets, uint32 LE each
//	slab         the posting blocks, off[nids] bytes
//	crc          uint32 LE     CRC-32C of every byte before it
//
// A str is a uvarint length and the bytes. The offsets and the slab are the
// in-memory posting store verbatim, so a load checks them — offsets
// monotone and in range, every block passing checkPosting, every colID
// naming a column that is not free — and then adopts the slab by slicing the read. Earlier
// formats are never decoded: an earlier version fails with ErrStaleFormat
// as well as ErrCorruptIndex (persist.go).
const (
	invertedMagic         = "GENTINVX"
	invertedFormatVersion = 6
	invertedFileName      = "inverted.bin"
	// invertedHeaderLen is the magic, version, epoch, dictionary stamp and
	// fan-out.
	invertedHeaderLen = len(invertedMagic) + 4 + 16 + 16 + 4
	// minRefBytes is the shortest ref record: an empty name, a column and a
	// size of one byte each.
	minRefBytes = 3
)

// appendInverted appends ix's file form to b, stamped with epoch e and the
// dictionary prefix stamp (n, fp).
func appendInverted(b []byte, ix *Inverted, e lake.Epoch, n int, fp uint64) []byte {
	ps := ix.ps
	b = append(b, invertedMagic...)
	b = binary.LittleEndian.AppendUint32(b, invertedFormatVersion)
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint64(b, e.Chain)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(ps.fanOut))
	b = binary.AppendUvarint(b, uint64(len(ps.refs)))
	for cid, ref := range ps.refs {
		b = table.AppendStr(b, ref.Table)
		b = binary.AppendUvarint(b, uint64(ref.Col))
		b = binary.AppendUvarint(b, uint64(ps.sizes[cid]+1))
	}
	b = binary.AppendUvarint(b, uint64(ps.ids()))
	for _, o := range ps.off {
		b = binary.LittleEndian.AppendUint32(b, o)
	}
	b = append(b, ps.slab...)
	return table.AppendCRC(b)
}

// parseInverted decodes an inverted index file into an index bound to no
// dictionary (IndexSet.Bind binds it) and the set's epoch. The index's slab
// is a slice of data, so data must not be modified afterwards.
func parseInverted(data []byte) (*Inverted, lake.Epoch, error) {
	if len(data) < len(invertedMagic)+4 || string(data[:len(invertedMagic)]) != invertedMagic {
		return nil, lake.Epoch{}, fmt.Errorf("%w: not an inverted index file", ErrCorruptIndex)
	}
	if v := binary.LittleEndian.Uint32(data[len(invertedMagic):]); v != invertedFormatVersion {
		if v < invertedFormatVersion {
			return nil, lake.Epoch{}, fmt.Errorf("%w (%w: format v%d, want v%d)", ErrStaleFormat, ErrCorruptIndex, v, invertedFormatVersion)
		}
		return nil, lake.Epoch{}, fmt.Errorf("%w: format v%d, want v%d", ErrCorruptIndex, v, invertedFormatVersion)
	}
	body, ok := table.CheckCRC(data)
	if len(body) < invertedHeaderLen {
		return nil, lake.Epoch{}, fmt.Errorf("%w: truncated header", ErrCorruptIndex)
	}
	if !ok {
		return nil, lake.Epoch{}, fmt.Errorf("%w: checksum mismatch", ErrCorruptIndex)
	}
	d := table.NewFlatReader(body, len(invertedMagic)+4)
	e := lake.Epoch{Seq: d.U64(), Chain: d.U64()}
	dictLen, dictFP := d.U64(), d.U64()
	fanOut := d.U32()
	if dictLen > math.MaxUint32 {
		return nil, lake.Epoch{}, fmt.Errorf("%w: %d-entry dictionary stamp", ErrCorruptIndex, dictLen)
	}
	if fanOut < 1 || fanOut > maxFanOut {
		return nil, lake.Epoch{}, fmt.Errorf("%w: fan-out %d", ErrCorruptIndex, fanOut)
	}
	ps := &postingStore{fanOut: int(fanOut)}

	nrefs := d.Count(minRefBytes)
	ps.refs = make([]ColumnRef, nrefs)
	ps.sizes = make([]int, nrefs)
	seen := make(map[ColumnRef]bool, nrefs)
	var name string
	for cid := range ps.refs {
		// Refs of one table are adjacent: reuse the previous name's string.
		if raw := d.Str(); string(raw) != name {
			name = string(raw)
		}
		ref := ColumnRef{Table: name, Col: d.Int()}
		size := d.Uvarint()
		if d.Bad() {
			return nil, lake.Epoch{}, fmt.Errorf("%w: truncated column table", ErrCorruptIndex)
		}
		if seen[ref] {
			return nil, lake.Epoch{}, fmt.Errorf("%w: duplicate column %s/%d", ErrCorruptIndex, ref.Table, ref.Col)
		}
		seen[ref] = true
		ps.refs[cid], ps.sizes[cid] = ref, int(size)-1
	}

	// The stamped dictionary bounds the IDs: one past its length would let a
	// query overlay's transient ID match postings.
	nids := d.Count(4)
	if d.Bad() || uint64(nids) > dictLen+1 {
		return nil, lake.Epoch{}, fmt.Errorf("%w: %d posting IDs over a %d-entry dictionary", ErrCorruptIndex, nids, dictLen)
	}
	ps.off = make([]uint32, nids+1)
	for id := range ps.off {
		ps.off[id] = d.U32()
	}
	if d.Bad() || ps.off[0] != 0 || int64(ps.off[nids]) != int64(len(body)-d.Offset()) {
		return nil, lake.Epoch{}, fmt.Errorf("%w: offsets do not match the slab", ErrCorruptIndex)
	}
	for id := 0; id < nids; id++ {
		if ps.off[id+1] < ps.off[id] {
			return nil, lake.Epoch{}, fmt.Errorf("%w: offsets decrease at ID %d", ErrCorruptIndex, id)
		}
	}
	ps.slab = body[d.Offset():len(body):len(body)]
	// A delta hands a free colID to the next added column, so a posting
	// left on one would land in that column.
	free := slices.ContainsFunc(ps.sizes, func(n int) bool { return n < 0 })
	for id := 0; id < nids; id++ {
		b := ps.slab[ps.off[id]:ps.off[id+1]]
		if len(b) == 0 {
			continue
		}
		last, err := checkPosting(b)
		if err != nil {
			return nil, lake.Epoch{}, fmt.Errorf("%w: ID %d: %w", ErrCorruptIndex, id, err)
		}
		if postingLen(b) == 0 || int64(last) >= int64(nrefs) {
			return nil, lake.Epoch{}, fmt.Errorf("%w: ID %d has no postings or references an unknown column", ErrCorruptIndex, id)
		}
		if free {
			held := false
			forEachPosting(b, func(cid uint32) { held = held || ps.sizes[cid] < 0 })
			if held {
				return nil, lake.Epoch{}, fmt.Errorf("%w: ID %d has a posting in a free column", ErrCorruptIndex, id)
			}
		}
	}
	return &Inverted{ps: ps, savedLen: int(dictLen), savedFP: dictFP}, e, nil
}
