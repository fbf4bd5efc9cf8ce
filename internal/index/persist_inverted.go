package index

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"gent/internal/table"
)

// Inverted-index persistence (format v5) is one flat file, inverted.bin,
// read in one read and checksummed end to end:
//
//	"GENTINVX"   8-byte magic
//	version      uint32 LE     invertedFormatVersion
//	dict fp      uint64 LE     fingerprint of the dictionary saved beside it
//	fan-out      uint32 LE     the probe fan-out width (Inverted.Shards)
//	nrefs        uvarint, then per colID: table name str, column uvarint,
//	             size uvarint (the column's distinct count + 1; 0 for a
//	             column no longer indexed)
//	nids         uvarint, then nids+1 offsets, uint32 LE each
//	slab         the posting blocks, off[nids] bytes
//	crc          uint32 LE     CRC-32C of every byte before it
//
// A str is a uvarint length and the bytes. The offsets and the slab are the
// in-memory posting store verbatim, so a load checks them — offsets
// monotone and in range, every block passing checkPosting, every colID
// naming a column — and then adopts the slab by slicing the read.
//
// Earlier formats are never decoded: a directory holding a v4 set
// (inverted-shards.gob plus one inverted-shard-NNN.gob per shard) or a
// pre-sharding inverted.gob fails with ErrStaleFormat, and SaveDir removes
// their files.
const (
	invertedMagic         = "GENTINVX"
	invertedFormatVersion = 5
	invertedFileName      = "inverted.bin"
	// invertedHeaderLen is the magic, version, fingerprint and fan-out.
	invertedHeaderLen = len(invertedMagic) + 4 + 8 + 4
	// minRefBytes is the shortest ref record: an empty name, a column and a
	// size of one byte each.
	minRefBytes = 3

	legacyInvertedFileName = "inverted.gob"
	v4MetaFileName         = "inverted-shards.gob"
	v4ShardFileGlob        = "inverted-shard-*.gob"
)

// ErrCorruptIndex reports an inverted index file that cannot be trusted:
// not a format v5 file, truncated, failing its checksum, or with counts,
// offsets or posting blocks that do not add up. Nothing is served from it.
var ErrCorruptIndex = errors.New("index: corrupt inverted index file")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendInverted appends ix's file form to b, folding any override layer
// first, stamped with the dictionary fingerprint fp.
func appendInverted(b []byte, ix *Inverted, fp uint64) []byte {
	ps := ix.compactedBase()
	// A column added by a delta that has no non-null value is sized but
	// owns no posting, so it may be missing from refs: give it a colID too.
	refs := ps.refs
	known := make(map[ColumnRef]bool, len(refs))
	for _, ref := range refs {
		known[ref] = true
	}
	var extra []ColumnRef
	for ref := range ix.colSizes {
		if !known[ref] {
			extra = append(extra, ref)
		}
	}
	slices.SortFunc(extra, func(a, b ColumnRef) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Col, b.Col))
	})
	refs = append(slices.Clip(refs), extra...)

	b = append(b, invertedMagic...)
	b = binary.LittleEndian.AppendUint32(b, invertedFormatVersion)
	b = binary.LittleEndian.AppendUint64(b, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(ps.fanOut))
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, ref := range refs {
		b = binary.AppendUvarint(b, uint64(len(ref.Table)))
		b = append(b, ref.Table...)
		b = binary.AppendUvarint(b, uint64(ref.Col))
		size := uint64(0)
		if n, ok := ix.colSizes[ref]; ok {
			size = uint64(n) + 1
		}
		b = binary.AppendUvarint(b, size)
	}
	b = binary.AppendUvarint(b, uint64(ps.ids()))
	for _, o := range ps.off {
		b = binary.LittleEndian.AppendUint32(b, o)
	}
	b = append(b, ps.slab...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// saveInverted writes ix to path through table.WriteFileAtomic.
func saveInverted(path string, ix *Inverted, fp uint64) error {
	b := appendInverted(nil, ix, fp)
	return saveFile(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// loadInverted reads an inverted index file whole and parses it under dict,
// which must carry the fingerprint the file was saved with.
func loadInverted(path string, dict *table.Dict) (*Inverted, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return parseInverted(data, dict)
}

// parseInverted decodes an inverted index file. The returned index's slab is
// a slice of data, so data must not be modified afterwards.
func parseInverted(data []byte, dict *table.Dict) (*Inverted, error) {
	if len(data) < invertedHeaderLen+4 || string(data[:len(invertedMagic)]) != invertedMagic {
		return nil, fmt.Errorf("%w: not an inverted index file", ErrCorruptIndex)
	}
	body := data[:len(data)-4]
	if v := binary.LittleEndian.Uint32(data[len(invertedMagic):]); v != invertedFormatVersion {
		return nil, fmt.Errorf("%w: format v%d, want v%d", ErrCorruptIndex, v, invertedFormatVersion)
	}
	if binary.LittleEndian.Uint32(data[len(body):]) != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptIndex)
	}
	if binary.LittleEndian.Uint64(data[len(invertedMagic)+4:]) != dict.Fingerprint() {
		return nil, fmt.Errorf("%w (inverted index)", ErrDictFingerprint)
	}
	fanOut := binary.LittleEndian.Uint32(data[len(invertedMagic)+12:])
	if fanOut < 1 || fanOut > maxFanOut {
		return nil, fmt.Errorf("%w: fan-out %d", ErrCorruptIndex, fanOut)
	}
	d := &invDecoder{b: body, off: invertedHeaderLen}
	ps := &postingStore{fanOut: int(fanOut)}

	nrefs := d.count(minRefBytes)
	ps.refs = make([]ColumnRef, nrefs)
	colSizes := make(map[ColumnRef]int, nrefs)
	seen := make(map[ColumnRef]bool, nrefs)
	var name string
	for cid := range ps.refs {
		// Refs of one table are adjacent: reuse the previous name's string.
		if raw := d.take(d.count(1)); string(raw) != name {
			name = string(raw)
		}
		ref := ColumnRef{Table: name, Col: d.int()}
		size := d.uvarint()
		if d.bad {
			return nil, fmt.Errorf("%w: truncated column table", ErrCorruptIndex)
		}
		if seen[ref] {
			return nil, fmt.Errorf("%w: duplicate column %s/%d", ErrCorruptIndex, ref.Table, ref.Col)
		}
		seen[ref] = true
		ps.refs[cid] = ref
		if size > 0 {
			colSizes[ref] = int(size - 1)
		}
	}

	// The dictionary bounds the IDs: one past its length would let a query
	// overlay's transient ID match postings.
	nids := d.count(4)
	if d.bad || nids > dict.Len()+1 {
		return nil, fmt.Errorf("%w: %d posting IDs over a %d-entry dictionary", ErrCorruptIndex, nids, dict.Len())
	}
	ps.off = make([]uint32, nids+1)
	for id := range ps.off {
		ps.off[id] = d.u32()
	}
	if d.bad || ps.off[0] != 0 || int64(ps.off[nids]) != int64(len(body)-d.off) {
		return nil, fmt.Errorf("%w: offsets do not match the slab", ErrCorruptIndex)
	}
	for id := 0; id < nids; id++ {
		if ps.off[id+1] < ps.off[id] {
			return nil, fmt.Errorf("%w: offsets decrease at ID %d", ErrCorruptIndex, id)
		}
	}
	ps.slab = body[d.off:len(body):len(body)]
	for id := 0; id < nids; id++ {
		b := ps.slab[ps.off[id]:ps.off[id+1]]
		if len(b) == 0 {
			continue
		}
		last, err := checkPosting(b)
		if err != nil {
			return nil, fmt.Errorf("%w: ID %d: %w", ErrCorruptIndex, id, err)
		}
		if postingLen(b) == 0 || int64(last) >= int64(nrefs) {
			return nil, fmt.Errorf("%w: ID %d has no postings or references an unknown column", ErrCorruptIndex, id)
		}
		ps.nlists++
	}
	return &Inverted{dict: dict, base: ps, colSizes: colSizes}, nil
}

// invDecoder reads the file layout from a byte slice. A read past the end or
// a malformed field sets bad and yields zero values from then on, so callers
// check bad once per record rather than after every field.
type invDecoder struct {
	b   []byte
	off int
	bad bool
}

func (d *invDecoder) take(n int) []byte {
	if d.bad || n > len(d.b)-d.off {
		d.bad = true
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *invDecoder) u32() uint32 {
	s := d.take(4)
	if d.bad {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *invDecoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

// int reads a uvarint that must fit a non-negative int32.
func (d *invDecoder) int() int {
	v := d.uvarint()
	if v > 1<<31-1 {
		d.bad = true
		return 0
	}
	return int(v)
}

// count reads the number of items that follow, each at least size bytes
// long, and fails unless that many fit in the bytes left — so a forged count
// never sizes an allocation beyond the file.
func (d *invDecoder) count(size int) int {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.b)-d.off)/uint64(size) {
		d.bad = true
		return 0
	}
	return int(n)
}
