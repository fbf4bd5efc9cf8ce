package index

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gent/internal/lake"
	"gent/internal/table"
)

// Real lakes are indexed once and queried many times, so both index kinds
// persist to disk with encoding/gob, alongside the value dictionary their
// IDs are keyed under (the inverted index in persist_shard.go). The formats
// are versioned so a stale index fails loudly instead of answering wrongly:
//
//   - v1 files predate the canonical key format this release fixed
//     (decimal-only numeric text, -0 normalization, separator escaping) and
//     are rejected — their postings would silently mismatch new Key output.
//   - Every substrate file carries the fingerprint of the dictionary it was
//     saved with, verified at load, so a torn save can never pair postings
//     with the wrong dictionary.
//
// Files are written to a temporary name and renamed into place, so a crash
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

// Save writes the MinHash-LSH index (without its dictionary — IndexSet.SaveDir
// persists that once for all substrates).
func (ix *MinHashLSH) Save(w io.Writer) error {
	return ix.save(w, ix.dict.Fingerprint())
}

func (ix *MinHashLSH) save(w io.Writer, fp uint64) error {
	flat := ix.flattened() // fold any incremental-maintenance layers
	return gob.NewEncoder(w).Encode(minhashDisk{
		Version:         minhashFormatVersion,
		Sigs:            flat.sigs,
		Buckets:         flat.buckets,
		Tables:          flat.tables,
		DictFingerprint: fp,
	})
}

// LoadMinHashLSH reads a MinHash-LSH index written by Save. dict is the
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
	return &MinHashLSH{dict: dict, sigs: d.Sigs, buckets: d.Buckets, tables: d.Tables}, nil
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

// loadEpochFile reads an epoch stamp file.
func loadEpochFile(path string, fp uint64) (lake.Epoch, error) {
	f, err := os.Open(path)
	if err != nil {
		return lake.Epoch{}, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return loadEpoch(f, fp)
}

// dictDisk is the serializable form of a value dictionary.
type dictDisk struct {
	Version int
	Entries []table.DictEntry
}

// SaveDict writes a dictionary snapshot.
func SaveDict(w io.Writer, d *table.Dict) error {
	return saveDictEntries(w, d.Snapshot())
}

func saveDictEntries(w io.Writer, entries []table.DictEntry) error {
	return gob.NewEncoder(w).Encode(dictDisk{
		Version: dictFormatVersion,
		Entries: entries,
	})
}

// LoadDict reads a dictionary written by SaveDict.
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

// SaveFile persists the MinHash index to a file, creating directories.
func (ix *MinHashLSH) SaveFile(path string) error {
	return saveFile(path, ix.Save)
}

// saveFile writes through a temporary file and renames it into place, so a
// crash mid-write leaves any previous file intact instead of a torn gob.
func saveFile(path string, save func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	tmp := f.Name()
	if err := save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// LoadMinHashLSHFile reads a MinHash index file; dict as in LoadMinHashLSH.
func LoadMinHashLSHFile(path string, dict *table.Dict) (*MinHashLSH, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return LoadMinHashLSH(f, dict)
}

// SaveDictFile persists a dictionary to a file, creating directories.
func SaveDictFile(path string, d *table.Dict) error {
	return saveFile(path, func(w io.Writer) error { return SaveDict(w, d) })
}

// LoadDictFile reads a dictionary file.
func LoadDictFile(path string) (*table.Dict, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return LoadDict(f)
}
