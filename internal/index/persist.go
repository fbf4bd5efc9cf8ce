package index

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"gent/internal/lake"
	"gent/internal/table"
)

// Real lakes are indexed once and queried many times, so every substrate
// persists to disk with encoding/gob, alongside the value dictionary their
// IDs are keyed under (the inverted index in persist_shard.go, the semantic
// index in persist_cosine.go). The formats are versioned so a stale index
// fails loudly instead of answering wrongly:
//
//   - v1 files predate the canonical key format this release fixed
//     (decimal-only numeric text, -0 normalization, separator escaping) and
//     are rejected — their postings would silently mismatch new Key output.
//   - Every substrate file carries the fingerprint of the dictionary it was
//     saved with, verified at load, so a torn save can never pair postings
//     with the wrong dictionary.
//
// Every file goes through table.WriteFileAtomic (saveFile), so a crash
// mid-write leaves the previous file intact rather than a truncated gob.

const (
	minhashFormatVersion = 2
	dictFormatVersion    = 1
)

// ErrDictRequired reports an index file loaded, or a set saved, without the
// value dictionary its IDs are keyed under.
var ErrDictRequired = errors.New("index: ID-keyed index requires its value dictionary")

// ErrStaleFormat reports an index file in a format this release no longer
// reads — one whose canonical key format differs, or a pre-sharding
// inverted.gob — so callers must rebuild.
var ErrStaleFormat = errors.New("index: index file predates the current format")

// ErrDictFingerprint reports an index file whose postings or sketches were
// built under a different dictionary than the one supplied — a torn or mixed
// save; the IDs would resolve to the wrong values.
var ErrDictFingerprint = errors.New("index: index/dictionary fingerprint mismatch")

// minhashDisk is the serializable form of MinHashLSH.
type minhashDisk struct {
	Version         int
	Sigs            map[ColumnRef]signature
	Buckets         map[uint64][]ColumnRef
	Tables          []string
	DictFingerprint uint64
}

// save writes the MinHash-LSH index stamped with the dictionary fingerprint
// of the save (the dictionary itself IndexSet.SaveDir persists once for all
// substrates).
func (ix *MinHashLSH) save(w io.Writer, fp uint64) error {
	flat := ix.flattened() // fold any incremental-maintenance layers
	return gob.NewEncoder(w).Encode(minhashDisk{
		Version:         minhashFormatVersion,
		Sigs:            flat.base,
		Buckets:         flat.buckets,
		Tables:          flat.tables,
		DictFingerprint: fp,
	})
}

// LoadMinHashLSH reads a MinHash-LSH index written by SaveDir. dict is the
// value dictionary the signatures were sketched under — persisted alongside
// by IndexSet.SaveDir — and its fingerprint must match the one saved.
func LoadMinHashLSH(r io.Reader, dict *table.Dict) (*MinHashLSH, error) {
	var d minhashDisk
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("index: decoding minhash index: %w", err)
	}
	switch d.Version {
	case minhashFormatVersion:
	case 1:
		return nil, fmt.Errorf("%w (minhash index v1)", ErrStaleFormat)
	default:
		return nil, fmt.Errorf("index: minhash index format v%d, want v%d",
			d.Version, minhashFormatVersion)
	}
	if dict == nil {
		return nil, fmt.Errorf("%w (minhash index v%d)", ErrDictRequired, d.Version)
	}
	if dict.Fingerprint() != d.DictFingerprint {
		return nil, fmt.Errorf("%w (minhash index)", ErrDictFingerprint)
	}
	return &MinHashLSH{dict: dict, banded: &banded[signature]{
		bandKeys: bandKeys, base: d.Sigs, buckets: d.Buckets, tables: d.Tables,
	}}, nil
}

// epochDisk is the serializable form of an IndexSet's epoch stamp.
// DictFingerprint pins the stamp to the dictionary snapshot the set was
// saved with — the same fingerprint every substrate file carries —
// so a stamp left behind by an older save can never pass itself off as
// describing newer substrates.
type epochDisk struct {
	Version         int
	Seq             uint64
	Chain           uint64
	DictFingerprint uint64
}

const epochFormatVersion = 1

// saveEpoch writes the lake epoch the set was built or maintained at.
func saveEpoch(w io.Writer, e lake.Epoch, fp uint64) error {
	return gob.NewEncoder(w).Encode(epochDisk{
		Version:         epochFormatVersion,
		Seq:             e.Seq,
		Chain:           e.Chain,
		DictFingerprint: fp,
	})
}

// loadEpoch reads an epoch stamp written by saveEpoch; fp must match the
// fingerprint the stamp was saved under.
func loadEpoch(r io.Reader, fp uint64) (lake.Epoch, error) {
	var d epochDisk
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return lake.Epoch{}, fmt.Errorf("index: decoding epoch stamp: %w", err)
	}
	if d.Version != epochFormatVersion {
		return lake.Epoch{}, fmt.Errorf("index: epoch stamp format v%d, want v%d",
			d.Version, epochFormatVersion)
	}
	if d.DictFingerprint != fp {
		return lake.Epoch{}, fmt.Errorf("%w (epoch stamp)", ErrDictFingerprint)
	}
	return lake.Epoch{Seq: d.Seq, Chain: d.Chain}, nil
}

// dictDisk is the serializable form of a value dictionary.
type dictDisk struct {
	Version int
	Entries []table.DictEntry
}

func saveDictEntries(w io.Writer, entries []table.DictEntry) error {
	return gob.NewEncoder(w).Encode(dictDisk{
		Version: dictFormatVersion,
		Entries: entries,
	})
}

// LoadDict reads a dictionary written by SaveDir.
func LoadDict(r io.Reader) (*table.Dict, error) {
	var d dictDisk
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("index: decoding dictionary: %w", err)
	}
	if d.Version != dictFormatVersion {
		return nil, fmt.Errorf("index: dictionary format v%d, want v%d",
			d.Version, dictFormatVersion)
	}
	dict, err := table.NewDictFromSnapshot(d.Entries)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return dict, nil
}

// saveFile is table.WriteFileAtomic under this package's error prefix.
func saveFile(path string, save func(io.Writer) error) error {
	if err := table.WriteFileAtomic(path, save); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// readFile opens path, hands it to load, and closes it.
func readFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return load(f)
}

// LoadMinHashLSHFile reads a MinHash index file; dict as in LoadMinHashLSH.
func LoadMinHashLSHFile(path string, dict *table.Dict) (*MinHashLSH, error) {
	return readFile(path, func(r io.Reader) (*MinHashLSH, error) { return LoadMinHashLSH(r, dict) })
}

// LoadDictFile reads a dictionary file.
func LoadDictFile(path string) (*table.Dict, error) {
	return readFile(path, LoadDict)
}
