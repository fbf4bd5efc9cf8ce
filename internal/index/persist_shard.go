package index

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gent/internal/table"
)

// Inverted-index persistence (format v4): the index saves as one meta file (the colID→column table, column sizes, shard count) plus
// one file per shard holding that shard's posting blocks. Every file carries
// the dictionary fingerprint of the save, so shards from different saves can
// never be mixed; every posting block is fully validated (checkPosting) at
// load, so the trusted in-place iteration never runs over bytes that came
// from disk unchecked. Per-shard files keep both save and load streaming —
// no single gob ever holds the whole index — and let a loader touch shards
// in parallel.
const (
	invertedFormatSharded = 4
	shardMetaFileName     = "inverted-shards.gob"
	shardFilePattern      = "inverted-shard-%03d.gob"
	shardFileGlob         = "inverted-shard-*.gob"
)

// shardMetaDisk is the serializable index-wide part of a sharded inverted
// index.
type shardMetaDisk struct {
	Version         int
	NShards         int
	Refs            []ColumnRef
	ColSizes        map[ColumnRef]int
	DictFingerprint uint64
}

// shardDisk is one shard's file.
type shardDisk struct {
	Version         int
	Shard           int
	NShards         int
	Lists           map[uint32][]byte
	DictFingerprint uint64
}

// saveInvertedSharded writes the index under dir, folding any override layer
// first. Stale shard files from an earlier save with more
// shards are removed so the directory holds exactly one coherent set.
func saveInvertedSharded(dir string, ix *Inverted, fp uint64) error {
	sh := ix.compactedBase()
	meta := shardMetaDisk{
		Version:         invertedFormatSharded,
		NShards:         sh.n,
		Refs:            sh.refs,
		ColSizes:        ix.colSizes,
		DictFingerprint: fp,
	}
	err := saveFile(filepath.Join(dir, shardMetaFileName), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(meta)
	})
	if err != nil {
		return err
	}
	for s := 0; s < sh.n; s++ {
		d := shardDisk{
			Version:         invertedFormatSharded,
			Shard:           s,
			NShards:         sh.n,
			Lists:           sh.shards[s].lists,
			DictFingerprint: fp,
		}
		err := saveFile(filepath.Join(dir, fmt.Sprintf(shardFilePattern, s)), func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(d)
		})
		if err != nil {
			return err
		}
	}
	stale, err := filepath.Glob(filepath.Join(dir, shardFileGlob))
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	for _, p := range stale {
		base := filepath.Base(p)
		num := strings.TrimSuffix(strings.TrimPrefix(base, "inverted-shard-"), ".gob")
		if s, err := strconv.Atoi(num); err == nil && s >= sh.n {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("index: %w", err)
			}
		}
	}
	return nil
}

// loadInvertedSharded reads an inverted index from dir. The value dictionary
// is required and fingerprint-checked against every file. The declared shard
// count is bounded by the shard files actually present before anything is
// sized by it, and each shard's blocks are fully validated: posting bytes
// must pass checkPosting, reference colIDs must be in range, and each ID
// must hash to the shard its file claims — so a corrupt, truncated, forged
// or misfiled set fails the load instead of answering queries wrongly.
func loadInvertedSharded(dir string, dict *table.Dict) (*Inverted, error) {
	if dict == nil {
		return nil, fmt.Errorf("%w (inverted index v%d)", ErrDictRequired, invertedFormatSharded)
	}
	metaPath := filepath.Join(dir, shardMetaFileName)
	f, err := os.Open(metaPath)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	var meta shardMetaDisk
	err = gob.NewDecoder(f).Decode(&meta)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("index: decoding shard meta: %w", err)
	}
	if meta.Version != invertedFormatSharded {
		return nil, fmt.Errorf("index: shard meta format v%d, want v%d",
			meta.Version, invertedFormatSharded)
	}
	files, err := filepath.Glob(filepath.Join(dir, shardFileGlob))
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if meta.NShards < 1 || meta.NShards > len(files) {
		return nil, fmt.Errorf("%w: shard meta declares %d shards, %d shard files present",
			ErrCorruptPosting, meta.NShards, len(files))
	}
	if dict.Fingerprint() != meta.DictFingerprint {
		return nil, fmt.Errorf("%w (inverted index shards)", ErrDictFingerprint)
	}
	sh := &shardedForm{
		n:      meta.NShards,
		refs:   meta.Refs,
		refIDs: make(map[ColumnRef]uint32, len(meta.Refs)),
		shards: make([]invShard, meta.NShards),
	}
	for i, ref := range meta.Refs {
		sh.refIDs[ref] = uint32(i)
	}
	if len(sh.refIDs) != len(sh.refs) {
		return nil, fmt.Errorf("index: shard meta holds duplicate column references")
	}
	for s := 0; s < meta.NShards; s++ {
		path := filepath.Join(dir, fmt.Sprintf(shardFilePattern, s))
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		var d shardDisk
		err = gob.NewDecoder(f).Decode(&d)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("index: decoding shard %d: %w", s, err)
		}
		if d.Version != invertedFormatSharded || d.Shard != s || d.NShards != meta.NShards {
			return nil, fmt.Errorf("index: shard file %s does not match its set (v%d shard %d/%d)",
				filepath.Base(path), d.Version, d.Shard, d.NShards)
		}
		if d.DictFingerprint != meta.DictFingerprint {
			return nil, fmt.Errorf("%w (inverted index shard %d)", ErrDictFingerprint, s)
		}
		for id, b := range d.Lists {
			if shardOf(id, meta.NShards) != s {
				return nil, fmt.Errorf("index: shard %d holds ID %d routed to shard %d",
					s, id, shardOf(id, meta.NShards))
			}
			if err := checkPosting(b); err != nil {
				return nil, fmt.Errorf("shard %d, ID %d: %w", s, id, err)
			}
			bad := false
			forEachPosting(b, func(cid uint32) {
				if int(cid) >= len(sh.refs) {
					bad = true
				}
			})
			if bad {
				return nil, fmt.Errorf("%w: shard %d, ID %d references an unknown column",
					ErrCorruptPosting, s, id)
			}
		}
		sh.shards[s] = invShard{lists: d.Lists}
		sh.nlists += len(d.Lists)
	}
	return &Inverted{dict: dict, base: sh, colSizes: meta.ColSizes}, nil
}
