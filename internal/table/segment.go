package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Segment files are the on-disk columnar form of an Interned table: the
// [][]uint32 cell columns and the sorted distinct-ID sets, block-written so a
// loader can seek straight to any column, with a footer describing the
// blocks. The format is deliberately raw — fixed-width little-endian IDs, no
// gob — so a 100K-table lake can spill and re-load forms with one bounded
// read per block and no decoder allocations beyond the slices themselves.
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

// InternedSource resolves a table to its interned (columnar ID) form —
// satisfied trivially by a resident *Interned and by a *Segment that loads
// the form from disk on demand.
type InternedSource interface {
	Resolve(t *Table) (*Interned, error)
}

// Resolve returns the resident form itself: an Interned is its own source.
func (it *Interned) Resolve(t *Table) (*Interned, error) {
	if t != nil && t != it.Table {
		return it.Retargeted(t), nil
	}
	return it, nil
}

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
// validate and lazily load the interned form, without the ID blocks
// themselves. Open with OpenSegmentFile; Resolve reads the blocks.
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
	if ncols > segMaxCols || nrows > segMaxRows {
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

// Resolve reads the segment's ID blocks and binds them to t, which must have
// the segment's dimensions (the caller is responsible for checking the
// content fingerprint and dictionary stamp first — SegmentStore does both).
// The file is opened, block-read and closed within the call, so resolving
// 100K tables never holds 100K descriptors.
func (s *Segment) Resolve(t *Table) (*Interned, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: %s: nil table", ErrSegmentCorrupt, s.path)
	}
	if len(t.Cols) != s.ncols || len(t.Rows) != s.nrows {
		return nil, fmt.Errorf("%w: %s: table %s is %dx%d, segment is %dx%d",
			ErrSegmentCorrupt, s.path, t.Name, len(t.Cols), len(t.Rows), s.ncols, s.nrows)
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	defer f.Close()

	maxID := uint32(s.DictLen)
	readBlock := func(off int64, n int, sorted bool) ([]uint32, error) {
		buf := make([]byte, n*4)
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, s.path, err)
		}
		ids := make([]uint32, n)
		prev := uint32(0)
		for i := range ids {
			id := binary.LittleEndian.Uint32(buf[i*4:])
			if id > maxID {
				return nil, fmt.Errorf("%w: %s: ID %d beyond stamped dictionary length %d",
					ErrSegmentCorrupt, s.path, id, s.DictLen)
			}
			if sorted && (id <= prev || id == NullID) {
				return nil, fmt.Errorf("%w: %s: distinct set not strictly increasing",
					ErrSegmentCorrupt, s.path)
			}
			ids[i] = id
			prev = id
		}
		return ids, nil
	}

	it := &Interned{
		Table: t,
		Cols:  make([][]uint32, s.ncols),
		sets:  make([][]uint32, s.ncols),
	}
	off := int64(len(segHeaderMagic))
	for c := 0; c < s.ncols; c++ {
		ids, err := readBlock(off, s.nrows, false)
		if err != nil {
			return nil, err
		}
		it.Cols[c] = ids
		off += int64(s.nrows) * 4
	}
	for c := 0; c < s.ncols; c++ {
		ids, err := readBlock(off, s.setLens[c], true)
		if err != nil {
			return nil, err
		}
		it.sets[c] = ids
		off += int64(s.setLens[c]) * 4
	}
	return it, nil
}
