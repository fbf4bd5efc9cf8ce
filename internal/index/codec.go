package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Binary vector codec: the persisted payload of a CosineLSH's column
// vectors. A hand-rolled fixed layout instead of gob because the vectors
// dominate the file and the flat encoding reads back without reflection:
//
//	magic "GVEC" | u8 version | u32 dim | u32 count
//	count × ( u32 nameLen | name | u32 col | dim × f32 )
//
// All integers and float bits little-endian. Entries are sorted by (table,
// col) at encode time, so the encoding of a vector set is canonical —
// decoding and re-encoding any valid payload reaches a fixed point after
// one round trip.

const (
	vectorCodecMagic   = "GVEC"
	vectorCodecVersion = 1
	// maxRefName bounds a single table-name allocation while decoding
	// untrusted bytes; real table names are tiny.
	maxRefName = 1 << 16
)

// errVectorCodec tags every malformed-payload failure.
var errVectorCodec = errors.New("index: malformed vector payload")

// encodeVectors serializes a ref→unit-vector map canonically.
func encodeVectors(dim int, vecs map[ColumnRef][]float32) []byte {
	refs := make([]ColumnRef, 0, len(vecs))
	for ref := range vecs {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Table != refs[j].Table {
			return refs[i].Table < refs[j].Table
		}
		return refs[i].Col < refs[j].Col
	})
	size := 4 + 1 + 4 + 4
	for _, ref := range refs {
		size += 4 + len(ref.Table) + 4 + 4*dim
	}
	out := make([]byte, 0, size)
	out = append(out, vectorCodecMagic...)
	out = append(out, vectorCodecVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(dim))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(refs)))
	for _, ref := range refs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(ref.Table)))
		out = append(out, ref.Table...)
		out = binary.LittleEndian.AppendUint32(out, uint32(ref.Col))
		for _, v := range vecs[ref][:dim] {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	}
	return out
}

// decodeVectors parses a payload written by encodeVectors, rejecting
// truncation, trailing bytes, duplicate refs, and implausible counts before
// allocating for them.
func decodeVectors(data []byte) (dim int, vecs map[ColumnRef][]float32, err error) {
	if len(data) < 13 || string(data[:4]) != vectorCodecMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", errVectorCodec)
	}
	if data[4] != vectorCodecVersion {
		return 0, nil, fmt.Errorf("%w: version %d, want %d", errVectorCodec, data[4], vectorCodecVersion)
	}
	dim = int(binary.LittleEndian.Uint32(data[5:9]))
	count := int(binary.LittleEndian.Uint32(data[9:13]))
	if dim <= 0 || dim > 1<<20 {
		return 0, nil, fmt.Errorf("%w: dimension %d", errVectorCodec, dim)
	}
	// Every entry takes at least 8+4*dim bytes; an inflated count must not
	// drive the map pre-allocation.
	rest := data[13:]
	if minEntry := 8 + 4*dim; count < 0 || count > len(rest)/minEntry {
		return 0, nil, fmt.Errorf("%w: count %d exceeds payload", errVectorCodec, count)
	}
	vecs = make(map[ColumnRef][]float32, count)
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return 0, nil, fmt.Errorf("%w: truncated entry %d", errVectorCodec, i)
		}
		nameLen := int(binary.LittleEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if nameLen > maxRefName || len(rest) < nameLen+4+4*dim {
			return 0, nil, fmt.Errorf("%w: truncated entry %d", errVectorCodec, i)
		}
		ref := ColumnRef{Table: string(rest[:nameLen])}
		rest = rest[nameLen:]
		ref.Col = int(binary.LittleEndian.Uint32(rest[:4]))
		rest = rest[4:]
		vec := make([]float32, dim)
		for d := range vec {
			vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*d:]))
		}
		rest = rest[4*dim:]
		if _, dup := vecs[ref]; dup {
			return 0, nil, fmt.Errorf("%w: duplicate ref %s/%d", errVectorCodec, ref.Table, ref.Col)
		}
		vecs[ref] = vec
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", errVectorCodec, len(rest))
	}
	return dim, vecs, nil
}
