package index

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"gent/internal/embed"
	"gent/internal/table"
)

// The semantic substrate persists as one flat file, semantic.bin, read in
// one read and checksummed end to end:
//
//	"GVEC"        4-byte magic
//	version       u8             semanticFormatVersion
//	dict fp       uint64 LE      the dictionary saved beside it (0: none)
//	embedder      u8 kind (0 external, 1 n-gram), dim uint32 LE,
//	              n uint32 LE, seed uint64 LE, fingerprint uint64 LE
//	ntables       uvarint, then ntables × str: the indexed tables
//	nvecs         uvarint, then per vector, sorted by (table, column):
//	              table str, column uvarint, dim × float32 bits LE
//	crc           uint32 LE      CRC-32C of every byte before it
//
// The embedder is recorded because vectors are only comparable to queries
// embedded by the very same function: an n-gram index reconstructs its
// embedder from the recorded parameters, while an external-vector index
// loads without one and must have the matching embedder re-attached
// (AttachEmbedder) before it can answer queries or take deltas. Buckets are
// recomputed at load from the vectors and the fixed hyperplane family, so
// the file stays small and a loaded index is structurally identical to a
// fresh build over the same vectors. The vectors are sorted, so the encoding
// of an index is canonical.
const (
	semanticMagic         = "GVEC"
	semanticFormatVersion = 2
	semanticFileName      = "semantic.bin"
	// semanticHeaderLen is the magic, version, fingerprint and embedder.
	semanticHeaderLen = len(semanticMagic) + 1 + 8 + 1 + 4 + 4 + 8 + 8
	// maxSemanticDim bounds the dimension a file may declare, and with it the
	// hyperplane family a load derives (lshBands × lshBandBits × dim floats).
	maxSemanticDim = 1 << 14
)

// Embedder kinds recorded in the header.
const (
	embKindExternal = 0
	embKindNGram    = 1
)

// ErrEmbedderFingerprint reports an attempt to pair a semantic index with an
// embedder other than the one its vectors came from.
var ErrEmbedderFingerprint = errors.New("index: semantic index was built under a different embedder")

// appendCosine appends ix's file form to b, folding any override layer
// first; dictFP is the fingerprint of the dictionary saved beside it, kept
// only when the index is paired with one.
func appendCosine(b []byte, ix *CosineLSH, dictFP uint64) []byte {
	flat := ix.flattened()
	if ix.dict == nil {
		dictFP = 0
	}
	kind, n, seed := byte(embKindExternal), 0, uint64(0)
	if ng, ok := ix.emb.(*embed.NGramEmbedder); ok {
		kind = embKindNGram
		_, n, seed = ng.Params()
	}
	b = append(b, semanticMagic...)
	b = append(b, semanticFormatVersion)
	b = binary.LittleEndian.AppendUint64(b, dictFP)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint64(b, ix.embFP)
	b = binary.AppendUvarint(b, uint64(len(flat.tables)))
	for _, name := range flat.tables {
		b = table.AppendStr(b, name)
	}
	refs := make([]ColumnRef, 0, len(flat.base))
	for ref := range flat.base {
		refs = append(refs, ref)
	}
	slices.SortFunc(refs, compareRefs)
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, ref := range refs {
		b = table.AppendStr(b, ref.Table)
		b = binary.AppendUvarint(b, uint64(ref.Col))
		for _, v := range flat.base[ref][:ix.dim] {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return table.AppendCRC(b)
}

// compareRefs orders column refs by table, then column.
func compareRefs(a, b ColumnRef) int {
	return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Col, b.Col))
}

// parseCosine decodes a semantic index file. dict must carry the fingerprint
// the file records, when it records one. Every failure is typed: a file that
// is not a well-formed semantic.bin (truncated, failing its checksum, with
// counts that do not add up or vectors out of order) fails with
// ErrCorruptIndex, a foreign dictionary with ErrDictFingerprint, n-gram
// parameters that do not reproduce the recorded fingerprint with
// ErrEmbedderFingerprint.
func parseCosine(data []byte, dict *table.Dict) (*CosineLSH, error) {
	if len(data) < semanticHeaderLen+4 || string(data[:len(semanticMagic)]) != semanticMagic {
		return nil, fmt.Errorf("%w: not a semantic index file", ErrCorruptIndex)
	}
	if v := data[len(semanticMagic)]; v != semanticFormatVersion {
		return nil, fmt.Errorf("%w: semantic format v%d, want v%d", ErrCorruptIndex, v, semanticFormatVersion)
	}
	body, ok := table.CheckCRC(data)
	if !ok {
		return nil, fmt.Errorf("%w: semantic index checksum mismatch", ErrCorruptIndex)
	}
	d := table.NewFlatReader(body, len(semanticMagic)+1)
	dictFP := d.U64()
	kind, dim, n, seed, embFP := d.U8(), int(d.U32()), int(d.U32()), d.U64(), d.U64()
	if dictFP != 0 && dict.Fingerprint() != dictFP {
		return nil, fmt.Errorf("%w (semantic index)", ErrDictFingerprint)
	}
	if kind > embKindNGram || dim <= 0 || dim > maxSemanticDim {
		return nil, fmt.Errorf("%w: embedder kind %d, dimension %d", ErrCorruptIndex, kind, dim)
	}
	tables := make([]string, d.Count(1))
	for i := range tables {
		tables[i] = string(d.Str())
	}
	nvecs := d.Count(2 + 4*dim)
	vecs := make(map[ColumnRef][]float32, nvecs)
	slab := make([]float32, nvecs*dim)
	var prev ColumnRef
	for i := range nvecs {
		ref := prev
		if raw := d.Str(); string(raw) != ref.Table {
			ref.Table = string(raw)
		}
		ref.Col = d.Int()
		vec := slab[i*dim : (i+1)*dim : (i+1)*dim]
		for j := range vec {
			vec[j] = math.Float32frombits(d.U32())
		}
		if d.Bad() || i > 0 && compareRefs(prev, ref) >= 0 {
			return nil, fmt.Errorf("%w: semantic vector %d truncated or out of order", ErrCorruptIndex, i)
		}
		vecs[ref], prev = vec, ref
	}
	if !d.Done() {
		return nil, fmt.Errorf("%w: semantic index lengths and counts do not match the file", ErrCorruptIndex)
	}
	ix := &CosineLSH{
		embFP:  embFP,
		dim:    dim,
		banded: bandedOver(cosineBandKeys(dim), vecs, len(vecs), tables),
	}
	if dictFP != 0 {
		ix.dict = dict
	}
	if kind == embKindNGram {
		emb := embed.NewNGramEmbedder(dim, n, seed)
		if emb.Fingerprint() != embFP {
			return nil, fmt.Errorf("%w (recorded parameters disagree with fingerprint)", ErrEmbedderFingerprint)
		}
		ix.emb = emb
	}
	return ix, nil
}
