package index

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"gent/internal/embed"
	"gent/internal/table"
)

// The semantic substrate persists like the syntactic ones (persist.go): a
// versioned gob envelope carrying the dictionary fingerprint it was saved
// beside, rejected loudly on any mismatch. The envelope additionally records the
// embedder — kind, parameters, fingerprint — because vectors are only
// comparable to queries embedded by the very same function: an n-gram index
// reconstructs its embedder from the recorded parameters, while an
// external-vector index loads without one and must have the matching
// embedder re-attached (AttachEmbedder) before it can answer queries or
// take deltas.

const cosineFormatVersion = 1

// Embedder kinds recorded in the envelope.
const (
	embKindNGram    = "ngram"
	embKindExternal = "external"
)

// ErrEmbedderFingerprint reports an attempt to pair a semantic index with an
// embedder other than the one its vectors came from.
var ErrEmbedderFingerprint = errors.New("index: semantic index was built under a different embedder")

// cosineDisk is the serializable form of CosineLSH. Vectors ride in the
// canonical binary codec (codec.go); buckets are recomputed at load from the
// vectors and the fixed hyperplane family, so the file stays small and a
// loaded index is structurally identical to a fresh build over the same
// vectors.
type cosineDisk struct {
	Version         int
	EmbKind         string
	EmbDim          int
	EmbNGram        int
	EmbSeed         uint64
	EmbFingerprint  uint64
	Tables          []string
	DictFingerprint uint64
	Vectors         []byte
}

// save writes the index stamped with the given dictionary fingerprint —
// IndexSet.SaveDir passes the fingerprint of the one dictionary snapshot it
// persists for all substrates.
func (ix *CosineLSH) save(w io.Writer, dictFP uint64) error {
	flat := ix.flattened() // fold any incremental-maintenance layers
	d := cosineDisk{
		Version:        cosineFormatVersion,
		EmbKind:        embKindExternal,
		EmbDim:         ix.dim,
		EmbFingerprint: ix.embFP,
		Tables:         flat.tables,
		Vectors:        encodeVectors(ix.dim, flat.base),
	}
	if ix.dict != nil {
		d.DictFingerprint = dictFP
	}
	if ng, ok := ix.emb.(*embed.NGramEmbedder); ok {
		d.EmbKind = embKindNGram
		_, d.EmbNGram, d.EmbSeed = ng.Params()
	}
	return gob.NewEncoder(w).Encode(d)
}

// LoadCosineLSH reads a semantic index written by SaveDir. dict must carry
// the fingerprint the vectors were saved beside when the file records one
// (nil is then rejected); an ngram-kind file reconstructs its embedder from
// the recorded parameters, an external-kind file loads with none attached.
func LoadCosineLSH(r io.Reader, dict *table.Dict) (*CosineLSH, error) {
	var d cosineDisk
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("index: decoding semantic index: %w", err)
	}
	if d.Version != cosineFormatVersion {
		return nil, fmt.Errorf("%w (semantic index v%d, want v%d)",
			ErrStaleFormat, d.Version, cosineFormatVersion)
	}
	if d.DictFingerprint != 0 {
		if dict == nil {
			return nil, fmt.Errorf("%w (semantic index)", ErrDictRequired)
		}
		if dict.Fingerprint() != d.DictFingerprint {
			return nil, fmt.Errorf("%w (semantic index)", ErrDictFingerprint)
		}
	}
	dim, vecs, err := decodeVectors(d.Vectors)
	if err != nil {
		return nil, err
	}
	if dim != d.EmbDim {
		return nil, fmt.Errorf("%w: payload dimension %d, envelope %d",
			errVectorCodec, dim, d.EmbDim)
	}
	ix := &CosineLSH{
		embFP:  d.EmbFingerprint,
		dim:    dim,
		banded: bandedOver(cosineBandKeys(dim), vecs, len(vecs), d.Tables),
	}
	if d.DictFingerprint != 0 {
		ix.dict = dict
	}
	if d.EmbKind == embKindNGram {
		emb := embed.NewNGramEmbedder(d.EmbDim, d.EmbNGram, d.EmbSeed)
		if emb.Fingerprint() != d.EmbFingerprint {
			return nil, fmt.Errorf("%w (recorded parameters disagree with fingerprint)",
				ErrEmbedderFingerprint)
		}
		ix.emb = emb
	}
	return ix, nil
}

// LoadCosineLSHFile reads a semantic index file; dict as in LoadCosineLSH.
func LoadCosineLSHFile(path string, dict *table.Dict) (*CosineLSH, error) {
	return readFile(path, func(r io.Reader) (*CosineLSH, error) { return LoadCosineLSH(r, dict) })
}
