package index

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"gent/internal/embed"
	"gent/internal/lake"
	"gent/internal/table"
)

// IndexSet bundles the discovery substrates over one lake: the exact
// inverted index (the JOSIE role), the MinHash-LSH first stage (the Starmie
// role), the optional cosine-LSH semantic substrate, and the value
// dictionary the members are keyed under. Any substrate may be nil
// — the LSH index is only needed when first-stage retrieval is on, the
// semantic index only when a non-syntactic discovery strategy is. All
// members are read-only after construction (the dictionary only ever
// appends) and safe for concurrent search.
type IndexSet struct {
	Inverted *Inverted
	LSH      *MinHashLSH
	// Semantic is the embedding substrate for semantic/hybrid discovery. Its
	// vectors are not ID-keyed, but it is persisted under the set's
	// dictionary fingerprint like the others so a mixed directory refuses to
	// load.
	Semantic *CosineLSH
	// Dict is the value dictionary the substrates were built with. A session
	// loading a persisted set must adopt this dictionary into its lake
	// (lake.AdoptDict) before interning anything, so the persisted IDs keep
	// meaning the same values.
	Dict *table.Dict
	// Epoch is the lake epoch the substrates were built or last maintained
	// at; the zero Epoch means unknown (a hand-built or pre-epoch set). It is
	// persisted beside the substrates, so a later session over the same lake
	// lineage can tell at a glance whether the set is current, and
	// catch up with a delta when it is merely behind.
	Epoch lake.Epoch
}

// BuildIndexSet is BuildIndexSetSharded at DefaultShards.
func BuildIndexSet(l Corpus) *IndexSet {
	return BuildIndexSetSharded(l, DefaultShards)
}

// BuildIndexSetSharded builds both substrates over the corpus, each with a
// parallel per-table scan, and the two builds themselves running
// concurrently; shards is BuildInvertedSharded's. When the corpus is a
// *lake.Snapshot the set is stamped with its epoch.
func BuildIndexSetSharded(l Corpus, shards int) *IndexSet {
	s := &IndexSet{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Inverted = BuildInvertedSharded(l, shards)
	}()
	go func() {
		defer wg.Done()
		s.LSH = BuildMinHashLSH(l)
	}()
	wg.Wait()
	s.Dict = l.Dict()
	if snap, ok := l.(*lake.Snapshot); ok {
		s.Epoch = snap.Epoch()
	}
	return s
}

// BuildIndexSetFull is BuildIndexSetSharded plus the semantic substrate,
// embedded under emb (nil means the built-in embedder), with all three
// builds running concurrently.
func BuildIndexSetFull(l Corpus, shards int, emb embed.Embedder) *IndexSet {
	var sem *CosineLSH
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sem = BuildCosineLSH(l, emb)
	}()
	s := BuildIndexSetSharded(l, shards)
	wg.Wait()
	s.Semantic = sem
	return s
}

// Gap classifies how this set relates to a corpus: the corpus tables the
// substrates already cover and the tables missing entirely. ok reports an
// add-only gap — every covered table is indexed under exactly its current
// schema in every present substrate, so CatchUp can close the gap with a
// pure insertion delta. A partially-covered table (schema change under a
// kept name) makes the gap non-add-only: ok is false and the caller must
// rebuild.
func (s *IndexSet) Gap(c Corpus) (covered, missing []string, ok bool) {
	if s.Inverted == nil {
		return nil, c.Names(), false
	}
	var lshHas, semHas map[string]bool
	if s.LSH != nil {
		lshHas = s.LSH.tableSet()
	}
	if s.Semantic != nil {
		semHas = s.Semantic.tableSet()
	}
	for _, t := range c.Tables() {
		switch {
		case s.Inverted.coversTable(t):
			if lshHas != nil && !lshHas[t.Name] || semHas != nil && !semHas[t.Name] {
				return nil, nil, false // substrates disagree: not add-only
			}
			covered = append(covered, t.Name)
		case !s.Inverted.hasTable(t.Name):
			if lshHas != nil && lshHas[t.Name] || semHas != nil && semHas[t.Name] {
				return nil, nil, false
			}
			missing = append(missing, t.Name)
		default:
			return nil, nil, false // schema changed under a kept name
		}
	}
	return covered, missing, true
}

// CatchUp incrementally extends the set to cover snap, inserting the tables
// Gap reports missing through the same WithDelta maintenance the
// epoch-versioned session uses, then restamps Dict and Epoch from snap. It
// returns the number of tables added and whether the catch-up applied;
// ok=false (gap not add-only, a semantic substrate without its embedder, or
// a covered table whose indexed postings no longer match its contents)
// leaves the caller on the full rebuild path. The snapshot's
// dictionary must already incorporate the set's (lake.AdoptDict /
// AdoptDictCovering) so the persisted IDs keep meaning the same values.
//
// Covered tables are verified exactly, not just by schema: one pass over
// the live postings accumulates each covered column's indexed distinct
// count and an order-independent ID-set hash, which must match the
// snapshot's interned form — so a value-level edit to an already-indexed
// table (even one that reuses dictionary values and preserves counts)
// fails the catch-up instead of being silently served and re-persisted as
// current.
func (s *IndexSet) CatchUp(snap *lake.Snapshot) (added int, ok bool) {
	covered, missing, ok := s.Gap(snap)
	if !ok || s.Semantic != nil && !s.Semantic.Embeddable() {
		return 0, false
	}
	snap.EnsureInterned()
	if !s.Inverted.verifyTables(snap, covered) {
		return 0, false
	}
	if len(missing) == 0 {
		s.Dict = snap.Dict()
		s.Epoch = snap.Epoch()
		return 0, true
	}
	forms := make([]*table.Interned, 0, len(missing))
	for _, name := range missing {
		forms = append(forms, snap.Interned(name))
	}
	// Rebind to the snapshot's (authoritative, possibly grown) dictionary
	// before inserting forms interned under it.
	s.Inverted.RebindDict(snap.Dict())
	inv := s.Inverted.WithDelta(forms, nil)
	var lsh *MinHashLSH
	if s.LSH != nil {
		s.LSH.RebindDict(snap.Dict())
		lsh = s.LSH.WithDelta(forms, nil)
	}
	var sem *CosineLSH
	if s.Semantic != nil {
		s.Semantic.RebindDict(snap.Dict())
		if sem = s.Semantic.WithDelta(forms, nil); sem == nil {
			return 0, false
		}
	}
	s.Inverted = inv
	s.LSH = lsh
	s.Semantic = sem
	s.Dict = snap.Dict()
	s.Epoch = snap.Epoch()
	return len(missing), true
}

// On-disk layout of a persisted IndexSet: one file per substrate (the
// inverted index: one meta file plus one per shard, persist_shard.go) plus
// the shared value dictionary and the epoch stamp under the set's directory.
// legacyInvertedFileName is the pre-sharding single-file inverted index,
// which this release no longer reads or writes.
const (
	legacyInvertedFileName = "inverted.gob"
	minhashFileName        = "minhash.gob"
	semanticFileName       = "semantic.gob"
	dictFileName           = "dict.gob"
	epochFileName          = "epoch.gob"
)

// SaveDir persists the set's non-nil members under dir (created if needed)
// and removes the files an earlier save left for the members it lacks.
// A set without its dictionary cannot be persisted usefully and is an error.
// One dictionary snapshot is taken up front: its entries go to the
// dictionary file and its fingerprint into each substrate file, so the saved
// files are provably mutually consistent even if the live dictionary grows
// mid-save; every file is written atomically (table.WriteFileAtomic), so a
// crash can at worst leave a mixed set whose fingerprints refuse to load.
func (s *IndexSet) SaveDir(dir string) error {
	if s.Inverted == nil && s.LSH == nil {
		return errors.New("index: empty index set")
	}
	if s.Dict == nil {
		return fmt.Errorf("%w: set Dict before SaveDir", ErrDictRequired)
	}
	// The fingerprint stamped below certifies the dict/postings pairing, so
	// it must only ever certify a true one: each substrate's own dictionary
	// has to be s.Dict or a prefix of it (postings IDs then mean the same
	// values under s.Dict). A hand-assembled set pairing a loaded substrate
	// with an unrelated dictionary is refused here rather than persisted as
	// silent corruption.
	compatible := func(d *table.Dict) bool {
		return d == nil || d == s.Dict || d.PrefixOf(s.Dict)
	}
	if s.Inverted != nil && !compatible(s.Inverted.dict) {
		return errors.New("index: inverted index was built under a different dictionary than the set's")
	}
	if s.LSH != nil && !compatible(s.LSH.dict) {
		return errors.New("index: minhash index was built under a different dictionary than the set's")
	}
	if s.Semantic != nil && !compatible(s.Semantic.Dict()) {
		return errors.New("index: semantic index was built under a different dictionary than the set's")
	}
	snap := s.Dict.Snapshot()
	fp := table.FingerprintSnapshot(snap)
	err := saveFile(filepath.Join(dir, dictFileName), func(w io.Writer) error {
		return saveDictEntries(w, snap)
	})
	if err != nil {
		return err
	}
	// One rule for every member: present → written, absent → its files from
	// an earlier save removed, so nothing stale is ever paired with the fresh
	// files under their shared fingerprint. The inverted meta file goes before
	// its shards: shards without a meta file are ignored at load.
	save := func(name string, write func(io.Writer) error) func() error {
		return func() error { return saveFile(filepath.Join(dir, name), write) }
	}
	members := []struct {
		present bool
		write   func() error
		files   []string // glob patterns, relative to dir
	}{
		{s.Inverted != nil, func() error { return saveInvertedSharded(dir, s.Inverted, fp) },
			[]string{shardMetaFileName, shardFileGlob}},
		{s.LSH != nil, save(minhashFileName, func(w io.Writer) error { return s.LSH.save(w, fp) }),
			[]string{minhashFileName}},
		{s.Semantic != nil, save(semanticFileName, func(w io.Writer) error { return s.Semantic.save(w, fp) }),
			[]string{semanticFileName}},
		{!s.Epoch.IsZero(), save(epochFileName, func(w io.Writer) error { return saveEpoch(w, s.Epoch, fp) }),
			[]string{epochFileName}},
		// A directory never holds two inverted representations.
		{false, nil, []string{legacyInvertedFileName}},
	}
	for _, m := range members {
		if m.present {
			if err := m.write(); err != nil {
				return err
			}
		} else if err := removeFiles(dir, m.files...); err != nil {
			return err
		}
	}
	return nil
}

// removeFiles deletes every file under dir matching one of the glob patterns;
// none matching is not an error.
func removeFiles(dir string, patterns ...string) error {
	for _, pattern := range patterns {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return fmt.Errorf("index: %w", err)
		}
		for _, p := range paths {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("index: %w", err)
			}
		}
	}
	return nil
}

// LoadIndexSetDir reads whichever substrates are present under dir, loading
// the dictionary first so the substrates can be wired to it. It is an error
// for neither substrate to exist, for a substrate to be present without the
// dictionary file (a dict/index mismatch on disk), or for the only inverted
// index to be a pre-sharding inverted.gob (ErrStaleFormat: rebuild); a
// missing substrate loads as nil so callers can lazily build it.
func LoadIndexSetDir(dir string) (*IndexSet, error) {
	s := &IndexSet{}
	dictPath := filepath.Join(dir, dictFileName)
	if _, err := os.Stat(dictPath); err == nil {
		d, err := LoadDictFile(dictPath)
		if err != nil {
			return nil, err
		}
		s.Dict = d
	}
	if fileExists(filepath.Join(dir, shardMetaFileName)) {
		inv, err := loadInvertedSharded(dir, s.Dict)
		if err != nil {
			return nil, err
		}
		s.Inverted = inv
	} else if fileExists(filepath.Join(dir, legacyInvertedFileName)) {
		return nil, fmt.Errorf("%w (pre-sharding %s)", ErrStaleFormat, legacyInvertedFileName)
	}
	lshPath := filepath.Join(dir, minhashFileName)
	if _, err := os.Stat(lshPath); err == nil {
		lsh, err := LoadMinHashLSHFile(lshPath, s.Dict)
		if err != nil {
			return nil, err
		}
		s.LSH = lsh
	}
	semPath := filepath.Join(dir, semanticFileName)
	if _, err := os.Stat(semPath); err == nil {
		sem, err := LoadCosineLSHFile(semPath, s.Dict)
		if err != nil {
			return nil, err
		}
		s.Semantic = sem
	}
	if s.Inverted == nil && s.LSH == nil {
		return nil, fmt.Errorf("%w under %s", ErrNoIndexFiles, dir)
	}
	epochPath := filepath.Join(dir, epochFileName)
	if _, err := os.Stat(epochPath); err == nil {
		// A loaded substrate implies the dictionary loaded too.
		fp := s.Dict.Fingerprint()
		e, err := readFile(epochPath, func(r io.Reader) (lake.Epoch, error) { return loadEpoch(r, fp) })
		if err != nil {
			return nil, err
		}
		s.Epoch = e
	} else if !os.IsNotExist(err) {
		// A stamp that exists but cannot be read must not silently load the
		// set as unstamped — that would bypass the epoch-mismatch guard.
		return nil, fmt.Errorf("index: %w", err)
	}
	return s, nil
}

// ErrNoIndexFiles reports that a directory holds no persisted substrates at
// all — a fresh location, as opposed to a corrupt or unreadable one.
var ErrNoIndexFiles = errors.New("index: no index files")

// fileExists reports whether path exists (any stat error counts as absent —
// the subsequent open of a genuinely unreadable file surfaces the real error
// on the paths that matter).
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
