package lake

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"

	"gent/internal/table"
)

// The catalog file (format v2) is one flat, length-prefixed binary layout,
// read in one pass and checksummed end to end:
//
//	"GENTCATL"                       8-byte magic
//	version     uint32 LE            catalogFormatVersion
//	seq, chain  uint64 LE each       the persisted Epoch
//	ntables     uvarint
//	per table:  name str, fingerprint uint64 LE,
//	            ncols uvarint + ncols × str,
//	            nkey uvarint + nkey × varint,
//	            nrows uvarint, then nrows × ncols cells in row order
//	ndict       uvarint, then ndict dictionary entries (entry i is ID i+1)
//	crc         uint32 LE            CRC-32C of every byte before it
//
// A str is a uvarint length and the bytes. A cell is its Kind byte and the
// kind's payload: nothing for a null, a str for a string, a str and the
// float64 bits (uint64 LE) for a number — its spelling and its value both
// survive — and a varint for a label. A dictionary entry is its Kind byte and
// a str, the canonical bits or a varint label.
//
// Decoding works on one string holding the whole file: every string cell and
// dictionary string is a substring of it, and each table's rows are slices
// of one []Value slab, so a catalog of a million cells costs a handful of
// allocations. Every count is checked against the bytes left before it
// sizes an allocation.
const (
	catalogMagic         = "GENTCATL"
	catalogFormatVersion = 2
	// catalogHeaderLen is the magic, version and epoch.
	catalogHeaderLen = len(catalogMagic) + 4 + 16
	// minTableBytes is the shortest table record: an empty name, the
	// fingerprint and three zero counts.
	minTableBytes = 1 + 8 + 3
)

// ErrCorruptCatalog reports a catalog file that cannot be trusted: not a
// format v2 catalog (the retired gob catalog.gob included), truncated,
// failing its checksum, or with counts and lengths that do not add up.
// Nothing is served from it; the remedy is to persist the lake again.
var ErrCorruptCatalog = errors.New("lake: corrupt or outdated catalog (persist the lake again)")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// catalog is what a catalog file holds: the snapshot's epoch, its tables in
// catalog order with their content fingerprints, and the value dictionary
// the segments' IDs were assigned under.
type catalog struct {
	epoch  Epoch
	tables []*table.Table
	fps    []uint64
	dict   *table.Dict
}

// appendCatalog appends c's file form to b. It writes every row as given, so
// only validated tables (table.Validate) read back; a table with rows but no
// columns has no byte to count its rows by and fails with table.ErrShape.
func appendCatalog(b []byte, c *catalog) ([]byte, error) {
	b = append(b, catalogMagic...)
	b = binary.LittleEndian.AppendUint32(b, catalogFormatVersion)
	b = binary.LittleEndian.AppendUint64(b, c.epoch.Seq)
	b = binary.LittleEndian.AppendUint64(b, c.epoch.Chain)
	b = binary.AppendUvarint(b, uint64(len(c.tables)))
	for i, t := range c.tables {
		if len(t.Cols) == 0 && len(t.Rows) > 0 {
			return nil, fmt.Errorf("%w: %s has rows but no columns", table.ErrShape, t.Name)
		}
		b = appendStr(b, t.Name)
		b = binary.LittleEndian.AppendUint64(b, c.fps[i])
		b = binary.AppendUvarint(b, uint64(len(t.Cols)))
		for _, col := range t.Cols {
			b = appendStr(b, col)
		}
		b = binary.AppendUvarint(b, uint64(len(t.Key)))
		for _, k := range t.Key {
			b = binary.AppendVarint(b, int64(k))
		}
		b = binary.AppendUvarint(b, uint64(len(t.Rows)))
		for _, r := range t.Rows {
			for _, v := range r {
				b = append(b, byte(v.Kind))
				switch v.Kind {
				case table.KindNull:
				case table.KindString:
					b = appendStr(b, v.Str)
				case table.KindNumber:
					b = appendStr(b, v.Str)
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Num))
				case table.KindLabel:
					b = binary.AppendVarint(b, v.ID)
				default:
					return nil, fmt.Errorf("%w: %s has a cell of kind %d", table.ErrShape, t.Name, v.Kind)
				}
			}
		}
	}
	entries := c.dict.Snapshot()
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = append(b, byte(e.Kind))
		switch e.Kind {
		case table.KindString:
			b = appendStr(b, e.Str)
		case table.KindNumber:
			b = binary.LittleEndian.AppendUint64(b, e.Bits)
		default:
			b = binary.AppendVarint(b, e.Label)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readCatalog reads the catalog file at path whole — into one string, with
// the checksum computed on the way in — and decodes it.
func readCatalog(path string) (*catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(catalogHeaderLen)+4 || size > math.MaxInt {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorruptCatalog, size)
	}
	var buf strings.Builder
	buf.Grow(int(size))
	h := crc32.New(castagnoli)
	if _, err := io.Copy(&buf, io.TeeReader(io.LimitReader(f, size-4), h)); err != nil {
		return nil, err
	}
	if _, err := io.Copy(&buf, f); err != nil {
		return nil, err
	}
	if int64(buf.Len()) != size {
		return nil, fmt.Errorf("%w: file changed size while read", ErrCorruptCatalog)
	}
	return parseCatalog(buf.String(), h.Sum32())
}

// parseCatalog decodes the catalog file s, whose bytes before the 4-byte
// trailer have CRC-32C bodySum. Besides the layout it checks what Open relies
// on: every table passes table.Validate (failing with table.ErrShape), names
// are unique, and the dictionary satisfies table.NewDictFromSnapshot.
func parseCatalog(s string, bodySum uint32) (*catalog, error) {
	if len(s) < catalogHeaderLen+4 || s[:len(catalogMagic)] != catalogMagic {
		return nil, fmt.Errorf("%w: not a catalog file", ErrCorruptCatalog)
	}
	d := &catDecoder{s: s[:len(s)-4], off: len(catalogMagic)}
	if v := d.u32(); v != catalogFormatVersion {
		return nil, fmt.Errorf("%w: format v%d, want v%d", ErrCorruptCatalog, v, catalogFormatVersion)
	}
	if sum := binary.LittleEndian.Uint32([]byte(s[len(s)-4:])); sum != bodySum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptCatalog)
	}
	c := &catalog{epoch: Epoch{Seq: d.u64(), Chain: d.u64()}}
	n := d.count(minTableBytes)
	c.tables = make([]*table.Table, 0, n)
	c.fps = make([]uint64, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		t, fp := d.readTable()
		if d.bad {
			break
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("%w: duplicate table name %q", ErrCorruptCatalog, t.Name)
		}
		seen[t.Name] = true
		// The shapes came from disk: a duplicate column or an out-of-range
		// key must fail here, not as an index panic deep inside a later query.
		if err := t.Validate(); err != nil {
			return nil, err
		}
		c.tables = append(c.tables, t)
		c.fps = append(c.fps, fp)
	}
	entries := make([]table.DictEntry, d.count(1))
	for i := range entries {
		entries[i] = d.entry()
	}
	if d.bad || d.off != len(d.s) {
		return nil, fmt.Errorf("%w: lengths and counts do not match the file", ErrCorruptCatalog)
	}
	dict, err := table.NewDictFromSnapshot(entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCatalog, err)
	}
	c.dict = dict
	return c, nil
}

// catDecoder reads the catalog layout from a string. A read past the end or
// a malformed field sets bad and yields zero values from then on, so callers
// check bad once per record rather than after every field.
type catDecoder struct {
	s   string
	off int
	bad bool
}

func (d *catDecoder) take(n int) string {
	if d.bad || n > len(d.s)-d.off {
		d.bad = true
		return ""
	}
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

func (d *catDecoder) u8() byte {
	if d.bad || d.off >= len(d.s) {
		d.bad = true
		return 0
	}
	c := d.s[d.off]
	d.off++
	return c
}

func (d *catDecoder) u32() uint32 {
	s := d.take(4)
	if d.bad {
		return 0
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func (d *catDecoder) u64() uint64 {
	lo := uint64(d.u32())
	return lo | uint64(d.u32())<<32
}

func (d *catDecoder) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		c := d.u8()
		if c < 0x80 {
			if shift == 63 && c > 1 {
				d.bad = true
				return 0
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.bad = true
	return 0
}

func (d *catDecoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// count reads the number of items that follow, each at least size bytes
// long, and fails unless that many fit in the bytes left — so a forged count
// never sizes an allocation beyond the file.
func (d *catDecoder) count(size int) int {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.s)-d.off)/uint64(size) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *catDecoder) str() string {
	return d.take(d.count(1))
}

// readTable decodes one table record. Empty Cols, Key and Rows come back nil.
func (d *catDecoder) readTable() (*table.Table, uint64) {
	t := &table.Table{Name: d.str()}
	fp := d.u64()
	if ncols := d.count(1); ncols > 0 {
		t.Cols = make([]string, ncols)
		for c := range t.Cols {
			t.Cols[c] = d.str()
		}
	}
	if nkey := d.count(1); nkey > 0 {
		t.Key = make([]int, nkey)
		for i := range t.Key {
			t.Key[i] = int(d.varint())
		}
	}
	ncols := len(t.Cols)
	if ncols == 0 {
		if d.uvarint() != 0 {
			d.bad = true
		}
		return t, fp
	}
	// Every cell is at least its kind byte, so nrows × ncols ≤ bytes left.
	nrows := d.count(ncols)
	if nrows == 0 || d.bad {
		return t, fp
	}
	slab := make([]table.Value, nrows*ncols)
	t.Rows = make([]table.Row, nrows)
	for r := range t.Rows {
		row := slab[r*ncols : (r+1)*ncols : (r+1)*ncols]
		for c := range row {
			row[c] = d.cell()
		}
		if d.bad {
			break
		}
		t.Rows[r] = row
	}
	return t, fp
}

func (d *catDecoder) cell() table.Value {
	switch k := table.Kind(d.u8()); k {
	case table.KindNull:
		return table.Null
	case table.KindString:
		return table.Value{Kind: k, Str: d.str()}
	case table.KindNumber:
		str := d.str()
		return table.Value{Kind: k, Str: str, Num: math.Float64frombits(d.u64())}
	case table.KindLabel:
		return table.Label(d.varint())
	default:
		d.bad = true
		return table.Null
	}
}

func (d *catDecoder) entry() table.DictEntry {
	switch k := table.Kind(d.u8()); k {
	case table.KindString:
		return table.DictEntry{Kind: k, Str: d.str()}
	case table.KindNumber:
		return table.DictEntry{Kind: k, Bits: d.u64()}
	case table.KindLabel:
		return table.DictEntry{Kind: k, Label: d.varint()}
	default:
		d.bad = true
		return table.DictEntry{}
	}
}
