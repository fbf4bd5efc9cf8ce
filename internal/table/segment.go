package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Segment files are the on-disk columnar form of an Interned table: the
// [][]uint32 cell columns and the sorted distinct-ID sets, block-written,
// with a footer describing the blocks. The format is deliberately raw —
// fixed-width little-endian IDs, no gob — so a 100K-table lake can spill and
// re-load forms with one read per file and one ID slab per form.
//
// Layout:
//
//	"GENTSEG1"                      8-byte header magic
//	cols[0] .. cols[ncols-1]        nrows × 4 bytes each, little-endian
//	sets[0] .. sets[ncols-1]        setLen[c] × 4 bytes each, little-endian
//	footer                          see below
//	footerLen uint32 LE, "GENTSEGF" 12-byte trailer
//
// The footer holds the table name, ncols, nrows, every set length (from
// which all block offsets derive), the table's content fingerprint
// (table.Fingerprint) and the dictionary prefix stamp (Dict.PrefixStamp) the
// IDs were assigned under. Loaders verify both stamps before trusting a
// single ID, so a segment can never be resolved against the wrong table
// contents or a diverged dictionary. Every parse error is ErrSegmentCorrupt
// — truncated, oversized or bit-flipped files fail loudly and never panic.

const (
	segHeaderMagic  = "GENTSEG1"
	segTrailerMagic = "GENTSEGF"
	// segMaxCols/segMaxRows bound footer-declared dimensions before any
	// allocation, so a corrupt footer cannot request an absurd buffer. The
	// true check is the exact file-size equation below; these caps only keep
	// the arithmetic overflow-free.
	segMaxCols = 1 << 24
	segMaxRows = 1 << 32
)

// ErrSegmentCorrupt reports a segment file that cannot be trusted: truncated,
// wrong magic, inconsistent block geometry, or stamps that fail verification.
var ErrSegmentCorrupt = errors.New("table: corrupt segment file")

// MemBytes estimates the heap bytes the form's ID payload occupies (cells
// plus distinct sets; the Table itself is not counted) — the unit the lake's
// resident-cache budget is accounted in.
func (it *Interned) MemBytes() int64 {
	var n int64
	for c := range it.Cols {
		n += int64(len(it.Cols[c])) * 4
		n += int64(len(it.sets[c])) * 4
	}
	// Slice headers and the two spines.
	n += int64(len(it.Cols)+len(it.sets)) * 24
	return n
}

// Segment is the parsed footer of a segment file: everything needed to
// validate the interned form, without the ID blocks themselves. Open with
// OpenSegmentFile; SegmentStore.Load reads footer and blocks in one read.
type Segment struct {
	path string
	// Name is the table name the segment was written for.
	Name string
	// TableFP is table.Fingerprint of the exact contents the IDs encode.
	TableFP uint64
	// DictLen and DictFP are the Dict.PrefixStamp at write time: the IDs in
	// the blocks are all ≤ DictLen and were assigned by a dictionary whose
	// first DictLen entries hash to DictFP.
	DictLen int
	DictFP  uint64

	ncols, nrows int
	setLens      []int
}

// WriteSegmentFile persists it to path via a temporary file renamed into
// place. fp is table.Fingerprint of it.Table (passed in because the lake
// already holds every table's fingerprint); dictLen and dictFP are the
// Dict.PrefixStamp the form's IDs were assigned under.
func WriteSegmentFile(path string, it *Interned, fp uint64, dictLen int, dictFP uint64) error {
	err := WriteFileAtomic(path, func(w io.Writer) error {
		return writeSegment(w, it, fp, dictLen, dictFP)
	})
	if err != nil {
		return fmt.Errorf("table: writing segment %s: %w", path, err)
	}
	return nil
}

func writeSegment(w io.Writer, it *Interned, fp uint64, dictLen int, dictFP uint64) error {
	if _, err := io.WriteString(w, segHeaderMagic); err != nil {
		return err
	}
	block := func(ids []uint32) error {
		buf := make([]byte, len(ids)*4)
		for i, id := range ids {
			binary.LittleEndian.PutUint32(buf[i*4:], id)
		}
		_, err := w.Write(buf)
		return err
	}
	for _, col := range it.Cols {
		if err := block(col); err != nil {
			return err
		}
	}
	for _, set := range it.sets {
		if err := block(set); err != nil {
			return err
		}
	}
	footer := appendSegFooter(nil, it, fp, dictLen, dictFP)
	if _, err := w.Write(footer); err != nil {
		return err
	}
	var trailer [12]byte
	binary.LittleEndian.PutUint32(trailer[:4], uint32(len(footer)))
	copy(trailer[4:], segTrailerMagic)
	_, err := w.Write(trailer[:])
	return err
}

func appendSegFooter(b []byte, it *Interned, fp uint64, dictLen int, dictFP uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(it.Table.Name)))
	b = append(b, it.Table.Name...)
	b = binary.AppendUvarint(b, uint64(len(it.Cols)))
	b = binary.AppendUvarint(b, uint64(len(it.Table.Rows)))
	for _, set := range it.sets {
		b = binary.AppendUvarint(b, uint64(len(set)))
	}
	b = binary.LittleEndian.AppendUint64(b, fp)
	b = binary.AppendUvarint(b, uint64(dictLen))
	b = binary.LittleEndian.AppendUint64(b, dictFP)
	return b
}

// OpenSegmentFile reads and validates a segment file's footer — not the ID
// blocks — and returns its description. Any structural inconsistency reports
// ErrSegmentCorrupt.
func OpenSegmentFile(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	seg, err := readSegmentMeta(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, path, err)
	}
	seg.path = path
	return seg, nil
}

// readSegmentMeta parses the header, trailer and footer of a segment of the
// given size, verifying the exact file-size equation the block geometry
// implies.
func readSegmentMeta(r io.ReaderAt, size int64) (*Segment, error) {
	if size < int64(len(segHeaderMagic))+12 {
		return nil, errors.New("file shorter than header and trailer")
	}
	var head [8]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if string(head[:]) != segHeaderMagic {
		return nil, errors.New("bad header magic")
	}
	var trailer [12]byte
	if _, err := r.ReadAt(trailer[:], size-12); err != nil {
		return nil, err
	}
	if string(trailer[4:]) != segTrailerMagic {
		return nil, errors.New("bad trailer magic")
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if footerLen <= 0 || footerLen > size-12-int64(len(segHeaderMagic)) {
		return nil, errors.New("footer length out of range")
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, size-12-footerLen); err != nil {
		return nil, err
	}

	uvar := func() (uint64, error) {
		v, n := binary.Uvarint(footer)
		if n <= 0 {
			return 0, errors.New("truncated footer varint")
		}
		footer = footer[n:]
		return v, nil
	}
	nameLen, err := uvar()
	if err != nil {
		return nil, err
	}
	if nameLen > uint64(len(footer)) {
		return nil, errors.New("name length exceeds footer")
	}
	seg := &Segment{Name: string(footer[:nameLen])}
	footer = footer[nameLen:]
	ncols, err := uvar()
	if err != nil {
		return nil, err
	}
	nrows, err := uvar()
	if err != nil {
		return nil, err
	}
	// Every column's set length takes at least one footer byte, which bounds
	// ncols before it sizes setLens.
	if ncols > segMaxCols || ncols > uint64(len(footer)) || nrows > segMaxRows {
		return nil, errors.New("dimensions out of range")
	}
	seg.ncols, seg.nrows = int(ncols), int(nrows)
	seg.setLens = make([]int, ncols)
	var setTotal uint64
	for c := range seg.setLens {
		n, err := uvar()
		if err != nil {
			return nil, err
		}
		if n > nrows {
			return nil, errors.New("distinct set longer than column")
		}
		seg.setLens[c] = int(n)
		setTotal += n
	}
	if len(footer) < 8 {
		return nil, errors.New("truncated footer tail")
	}
	seg.TableFP = binary.LittleEndian.Uint64(footer)
	footer = footer[8:]
	dictLen, err := uvar()
	if err != nil {
		return nil, err
	}
	if dictLen > 1<<32 {
		return nil, errors.New("dictionary length out of range")
	}
	seg.DictLen = int(dictLen)
	if len(footer) != 8 {
		return nil, errors.New("footer tail length mismatch")
	}
	seg.DictFP = binary.LittleEndian.Uint64(footer)

	want := int64(len(segHeaderMagic)) + int64(ncols)*int64(nrows)*4 +
		int64(setTotal)*4 + footerLen + 12
	if want != size {
		return nil, fmt.Errorf("file size %d does not match geometry %d", size, want)
	}
	return seg, nil
}

// decode binds the ID blocks of data — the whole segment file s was parsed
// from — to t, which must have the segment's dimensions. Every column and
// distinct set is a 3-index slice of one []uint32 slab. IDs beyond the
// stamped dictionary length and distinct sets that are not strictly
// increasing non-null IDs fail with ErrSegmentCorrupt. The caller checks the
// content fingerprint and dictionary stamp first (SegmentStore.Load does).
func (s *Segment) decode(data []byte, t *Table) (*Interned, error) {
	if len(t.Cols) != s.ncols || len(t.Rows) != s.nrows {
		return nil, fmt.Errorf("%w: %s: table %s is %dx%d, segment is %dx%d",
			ErrSegmentCorrupt, s.path, t.Name, len(t.Cols), len(t.Rows), s.ncols, s.nrows)
	}
	n := s.ncols * s.nrows
	for _, l := range s.setLens {
		n += l
	}
	// readSegmentMeta checked the geometry against the file size, so the
	// blocks are exactly n IDs after the header.
	blocks := data[len(segHeaderMagic):]
	slab := make([]uint32, n)
	maxID := uint32(s.DictLen)
	for i := range slab {
		id := binary.LittleEndian.Uint32(blocks[i*4:])
		if id > maxID {
			return nil, fmt.Errorf("%w: %s: ID %d beyond stamped dictionary length %d",
				ErrSegmentCorrupt, s.path, id, s.DictLen)
		}
		slab[i] = id
	}
	it := &Interned{
		Table: t,
		Cols:  make([][]uint32, s.ncols),
		sets:  make([][]uint32, s.ncols),
	}
	next := func(l int) []uint32 {
		b := slab[:l:l]
		slab = slab[l:]
		return b
	}
	for c := range it.Cols {
		it.Cols[c] = next(s.nrows)
	}
	for c := range it.sets {
		set := next(s.setLens[c])
		prev := NullID
		for _, id := range set {
			if id <= prev {
				return nil, fmt.Errorf("%w: %s: distinct set not strictly increasing",
					ErrSegmentCorrupt, s.path)
			}
			prev = id
		}
		it.sets[c] = set
	}
	return it, nil
}
