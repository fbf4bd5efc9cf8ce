package lake

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// a str, the canonical bits or a varint label (table.AppendDictEntries).
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
		b = table.AppendStr(b, t.Name)
		b = binary.LittleEndian.AppendUint64(b, c.fps[i])
		b = binary.AppendUvarint(b, uint64(len(t.Cols)))
		for _, col := range t.Cols {
			b = table.AppendStr(b, col)
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
					b = table.AppendStr(b, v.Str)
				case table.KindNumber:
					b = table.AppendStr(b, v.Str)
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Num))
				case table.KindLabel:
					b = binary.AppendVarint(b, v.ID)
				default:
					return nil, fmt.Errorf("%w: %s has a cell of kind %d", table.ErrShape, t.Name, v.Kind)
				}
			}
		}
	}
	b = table.AppendDictEntries(b, c.dict.Snapshot())
	return table.AppendCRC(b), nil
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
	h := table.NewCRC()
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
	d := table.NewFlatReader(s[:len(s)-4], len(catalogMagic))
	if v := d.U32(); v != catalogFormatVersion {
		return nil, fmt.Errorf("%w: format v%d, want v%d", ErrCorruptCatalog, v, catalogFormatVersion)
	}
	if sum := binary.LittleEndian.Uint32([]byte(s[len(s)-4:])); sum != bodySum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptCatalog)
	}
	c := &catalog{epoch: Epoch{Seq: d.U64(), Chain: d.U64()}}
	n := d.Count(minTableBytes)
	c.tables = make([]*table.Table, 0, n)
	c.fps = make([]uint64, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		t, fp := readTable(d)
		if d.Bad() {
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
	entries := d.DictEntries()
	if !d.Done() {
		return nil, fmt.Errorf("%w: lengths and counts do not match the file", ErrCorruptCatalog)
	}
	dict, err := table.NewDictFromSnapshot(entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCatalog, err)
	}
	c.dict = dict
	return c, nil
}

// readTable decodes one table record. Empty Cols, Key and Rows come back nil.
func readTable(d *table.FlatReader[string]) (*table.Table, uint64) {
	t := &table.Table{Name: d.Str()}
	fp := d.U64()
	if ncols := d.Count(1); ncols > 0 {
		t.Cols = make([]string, ncols)
		for c := range t.Cols {
			t.Cols[c] = d.Str()
		}
	}
	if nkey := d.Count(1); nkey > 0 {
		t.Key = make([]int, nkey)
		for i := range t.Key {
			t.Key[i] = int(d.Varint())
		}
	}
	ncols := len(t.Cols)
	if ncols == 0 {
		if d.Uvarint() != 0 {
			d.Fail()
		}
		return t, fp
	}
	// Every cell is at least its kind byte, so nrows × ncols ≤ bytes left.
	nrows := d.Count(ncols)
	if nrows == 0 || d.Bad() {
		return t, fp
	}
	slab := make([]table.Value, nrows*ncols)
	t.Rows = make([]table.Row, nrows)
	for r := range t.Rows {
		row := slab[r*ncols : (r+1)*ncols : (r+1)*ncols]
		for c := range row {
			row[c] = readCell(d)
		}
		if d.Bad() {
			break
		}
		t.Rows[r] = row
	}
	return t, fp
}

func readCell(d *table.FlatReader[string]) table.Value {
	switch k := table.Kind(d.U8()); k {
	case table.KindNull:
		return table.Null
	case table.KindString:
		return table.Value{Kind: k, Str: d.Str()}
	case table.KindNumber:
		str := d.Str()
		return table.Value{Kind: k, Str: str, Num: math.Float64frombits(d.U64())}
	case table.KindLabel:
		return table.Label(d.Varint())
	default:
		d.Fail()
		return table.Null
	}
}
