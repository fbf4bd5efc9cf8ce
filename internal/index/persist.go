package index

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gent/internal/table"
)

// A persisted IndexSet is one flat, checksummed file, inverted.bin
// (persist_inverted.go), read in one read through table.FlatReader and
// written through table.WriteFileAtomic. It carries the set's epoch and the
// Dict.PrefixStamp of the dictionary its IDs were assigned under, but not the
// dictionary itself: a loaded set serves a lake whose own dictionary verifies
// that stamp (IndexSet.Bind), exactly as a segment file does. The MinHash-LSH
// first stage is not persisted: a rebuild costs about what loading a file
// did, so a session that engages it builds it on demand. Files of retired
// layouts — the gob files of earlier releases (dict.gob, epoch.gob,
// minhash.gob, semantic.gob), a v4 sharded inverted set, a pre-sharding
// inverted.gob, the semantic.bin of the retired semantic discovery channel,
// or the dict.bin that sat beside a v5 inverted.bin — are never decoded: a
// directory holding them without a current inverted.bin fails with
// ErrStaleFormat, a directory with one loads and ignores them, and SaveDir
// removes them.

// retiredFiles are the glob patterns, relative to an index directory, of
// the files earlier layouts wrote.
var retiredFiles = []string{
	"dict.gob", "epoch.gob", "minhash.gob", "semantic.gob", "semantic.bin",
	"inverted.gob", "inverted-shards.gob", "inverted-shard-*.gob", "dict.bin",
}

// ErrDictRequired reports a set saved whose inverted index is bound to no
// dictionary — one LoadIndexSetDir returned, before IndexSet.Bind.
var ErrDictRequired = errors.New("index: ID-keyed index requires its value dictionary")

// ErrStaleFormat reports an index directory in a layout this release no
// longer reads — an inverted.bin of an earlier format version, the gob files
// of earlier releases, a v4 sharded inverted set or a pre-sharding
// inverted.gob — so callers must rebuild.
var ErrStaleFormat = errors.New("index: index file predates the current format")

// ErrCorruptIndex reports an index file that cannot be trusted: not in its
// current format, truncated, failing its checksum, or with counts, offsets,
// entries or posting blocks that do not add up. Nothing is served from it.
var ErrCorruptIndex = errors.New("index: corrupt index file")

// ErrNoIndexFiles reports that a directory holds no persisted set at all —
// a fresh location, as opposed to a corrupt or unreadable one.
var ErrNoIndexFiles = errors.New("index: no index files")

// SaveDir persists the set under dir (created if needed) as one inverted.bin
// stamped with the set's epoch and the prefix stamp of the dictionary the
// inverted index is keyed under, and removes every file of a retired layout.
// The MinHash-LSH is not written (see above). A set without its inverted
// index, or whose index is bound to no dictionary, is an error.
func (s *IndexSet) SaveDir(dir string) error {
	if s.Inverted == nil {
		return errors.New("index: index set without an inverted index")
	}
	d := s.Inverted.dict
	if d == nil {
		return fmt.Errorf("%w: bind the set before SaveDir", ErrDictRequired)
	}
	n, fp := d.PrefixStamp()
	if err := saveFile(filepath.Join(dir, invertedFileName), appendInverted(nil, s.Inverted, s.Epoch, n, fp)); err != nil {
		return err
	}
	return removeFiles(dir, retiredFiles...)
}

// LoadIndexSetDir reads the set SaveDir wrote under dir. Its inverted index
// is bound to no dictionary yet: IndexSet.Bind verifies it against a lake's
// before anything resolves a value through it. LSH is always nil: a session
// builds the first stage on demand. A directory without inverted.bin fails
// with ErrStaleFormat when it holds a retired layout's files (rebuild), and
// otherwise with ErrNoIndexFiles.
func LoadIndexSetDir(dir string) (*IndexSet, error) {
	if !fileExists(filepath.Join(dir, invertedFileName)) {
		retired, err := findFiles(dir, retiredFiles...)
		switch {
		case err != nil:
			return nil, err
		case len(retired) > 0:
			return nil, fmt.Errorf("%w (%s)", ErrStaleFormat, filepath.Base(retired[0]))
		}
		return nil, fmt.Errorf("%w under %s", ErrNoIndexFiles, dir)
	}
	data, err := readFile(dir, invertedFileName)
	if err != nil {
		return nil, err
	}
	inv, epoch, err := parseInverted(data)
	if err != nil {
		return nil, err
	}
	return &IndexSet{Inverted: inv, Epoch: epoch}, nil
}

// fileExists reports whether path exists (any stat error counts as absent —
// the subsequent read of a genuinely unreadable file surfaces the real
// error).
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// saveFile writes b to path through table.WriteFileAtomic.
func saveFile(path string, b []byte) error {
	err := table.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// readFile reads the file name under dir whole.
func readFile(dir, name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return data, nil
}

// findFiles lists the files under dir matching one of the glob patterns.
func findFiles(dir string, patterns ...string) ([]string, error) {
	var out []string
	for _, pattern := range patterns {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		out = append(out, paths...)
	}
	return out, nil
}

// removeFiles deletes every file under dir matching one of the glob patterns;
// none matching is not an error.
func removeFiles(dir string, patterns ...string) error {
	paths, err := findFiles(dir, patterns...)
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("index: %w", err)
		}
	}
	return nil
}
