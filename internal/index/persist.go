package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gent/internal/lake"
	"gent/internal/table"
)

// A persisted IndexSet is a directory of flat, checksummed files, each read
// in one read through table.FlatReader and written through
// table.WriteFileAtomic:
//
//   - dict.bin: the set's epoch and the value dictionary its substrates are
//     keyed under (below);
//   - inverted.bin: the inverted index (persist_inverted.go).
//
// inverted.bin carries the fingerprint of the dictionary saved beside it,
// verified at load, so a torn save can never pair postings with the wrong
// dictionary. The MinHash-LSH first stage is not persisted: a rebuild costs
// about what loading a file did, so a session that engages it builds it on
// demand. Files of retired layouts — the gob files of earlier releases
// (dict.gob, epoch.gob, minhash.gob, semantic.gob), a v4 sharded inverted
// set, a pre-sharding inverted.gob, or the semantic.bin of the retired
// semantic discovery channel — are never decoded: a directory holding them
// without a dict.bin and an inverted.bin fails with ErrStaleFormat, a
// directory with both loads and ignores them, and SaveDir removes them.
//
// dict.bin (format v1):
//
//	"GENTDICT"     8-byte magic
//	version        uint32 LE     dictFormatVersion
//	seq, chain     uint64 LE     the set's Epoch (zero: unstamped)
//	ndict          uvarint, then ndict entries (table.AppendDictEntries;
//	               entry i is ID i+1)
//	crc            uint32 LE     CRC-32C of every byte before it
const (
	dictMagic         = "GENTDICT"
	dictFormatVersion = 1
	dictFileName      = "dict.bin"
	// dictHeaderLen is the magic, version and epoch.
	dictHeaderLen = len(dictMagic) + 4 + 16
)

// retiredFiles are the glob patterns, relative to an index directory, of
// the files earlier layouts wrote.
var retiredFiles = []string{
	"dict.gob", "epoch.gob", "minhash.gob", "semantic.gob", "semantic.bin",
	"inverted.gob", "inverted-shards.gob", "inverted-shard-*.gob",
}

// ErrDictRequired reports an index directory loaded, or a set saved,
// without the value dictionary its IDs are keyed under.
var ErrDictRequired = errors.New("index: ID-keyed index requires its value dictionary")

// ErrStaleFormat reports an index directory in a layout this release no
// longer reads — the gob files of earlier releases, a v4 sharded inverted
// set or a pre-sharding inverted.gob — so callers must rebuild.
var ErrStaleFormat = errors.New("index: index file predates the current format")

// ErrDictFingerprint reports an index file whose postings were saved beside
// a different dictionary than the one supplied — a torn or
// mixed save; the IDs would resolve to the wrong values.
var ErrDictFingerprint = errors.New("index: index/dictionary fingerprint mismatch")

// ErrCorruptIndex reports an index file that cannot be trusted: not in its
// current format, truncated, failing its checksum, or with counts, offsets,
// entries or posting blocks that do not add up. Nothing is served from it.
var ErrCorruptIndex = errors.New("index: corrupt index file")

// ErrNoIndexFiles reports that a directory holds no persisted set at all —
// a fresh location, as opposed to a corrupt or unreadable one.
var ErrNoIndexFiles = errors.New("index: no index files")

// appendDictFile appends a dict.bin holding epoch e and the dictionary
// snapshot entries to b.
func appendDictFile(b []byte, e lake.Epoch, entries []table.DictEntry) []byte {
	b = append(b, dictMagic...)
	b = binary.LittleEndian.AppendUint32(b, dictFormatVersion)
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint64(b, e.Chain)
	b = table.AppendDictEntries(b, entries)
	return table.AppendCRC(b)
}

// parseDictFile decodes a dict.bin. A file that is not one, or whose
// entries table.NewDictFromSnapshot refuses, fails with ErrCorruptIndex.
func parseDictFile(data []byte) (*table.Dict, lake.Epoch, error) {
	if len(data) < dictHeaderLen+4 || string(data[:len(dictMagic)]) != dictMagic {
		return nil, lake.Epoch{}, fmt.Errorf("%w: not a dictionary file", ErrCorruptIndex)
	}
	if v := binary.LittleEndian.Uint32(data[len(dictMagic):]); v != dictFormatVersion {
		return nil, lake.Epoch{}, fmt.Errorf("%w: dictionary format v%d, want v%d", ErrCorruptIndex, v, dictFormatVersion)
	}
	body, ok := table.CheckCRC(data)
	if !ok {
		return nil, lake.Epoch{}, fmt.Errorf("%w: dictionary checksum mismatch", ErrCorruptIndex)
	}
	d := table.NewFlatReader(body, len(dictMagic)+4)
	e := lake.Epoch{Seq: d.U64(), Chain: d.U64()}
	entries := d.DictEntries()
	if !d.Done() {
		return nil, lake.Epoch{}, fmt.Errorf("%w: dictionary lengths and counts do not match the file", ErrCorruptIndex)
	}
	dict, err := table.NewDictFromSnapshot(entries)
	if err != nil {
		return nil, lake.Epoch{}, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	return dict, e, nil
}

// SaveDir persists the set under dir (created if needed): the inverted
// index, and the dictionary with the epoch stamp. It removes every file of a
// retired layout. The MinHash-LSH is not written (see above). A set without
// its inverted index or its dictionary is an error.
//
// One dictionary snapshot is taken up front: its fingerprint goes into
// inverted.bin and its entries into dict.bin, so the saved files are
// provably consistent even if the live dictionary grows mid-save. dict.bin
// is written last: a crash mid-save leaves the previous stamp, which can
// only make the set look older than its substrates (and so rebuilt), never
// newer.
func (s *IndexSet) SaveDir(dir string) error {
	if s.Inverted == nil {
		return errors.New("index: index set without an inverted index")
	}
	if s.Dict == nil {
		return fmt.Errorf("%w: set Dict before SaveDir", ErrDictRequired)
	}
	// The fingerprint stamped below certifies the dict/postings pairing, so
	// it must only ever certify a true one: the inverted index's own
	// dictionary has to be s.Dict or a prefix of it (postings IDs then mean
	// the same values under s.Dict). A hand-assembled set pairing a loaded
	// index with an unrelated dictionary is refused here rather than
	// persisted as silent corruption.
	if d := s.Inverted.dict; d != nil && d != s.Dict && !d.PrefixOf(s.Dict) {
		return errors.New("index: inverted index was built under a different dictionary than the set's")
	}
	snap := s.Dict.Snapshot()
	fp := table.FingerprintSnapshot(snap)
	if err := saveFile(filepath.Join(dir, invertedFileName), appendInverted(nil, s.Inverted, fp)); err != nil {
		return err
	}
	if err := removeFiles(dir, retiredFiles...); err != nil {
		return err
	}
	return saveFile(filepath.Join(dir, dictFileName), appendDictFile(nil, s.Epoch, snap))
}

// LoadIndexSetDir reads the set SaveDir wrote under dir: the dictionary and
// epoch first, then the inverted index wired to that dictionary. LSH is
// always nil: a session builds the first stage on demand. A directory
// without dict.bin or inverted.bin fails with ErrStaleFormat when it holds a
// retired layout's files (rebuild), with ErrDictRequired when it holds an
// inverted index but no dictionary, and otherwise with ErrNoIndexFiles.
func LoadIndexSetDir(dir string) (*IndexSet, error) {
	has := func(name string) bool { return fileExists(filepath.Join(dir, name)) }
	if !has(dictFileName) || !has(invertedFileName) {
		retired, err := findFiles(dir, retiredFiles...)
		switch {
		case err != nil:
			return nil, err
		case len(retired) > 0:
			return nil, fmt.Errorf("%w (%s)", ErrStaleFormat, filepath.Base(retired[0]))
		case !has(dictFileName) && has(invertedFileName):
			return nil, fmt.Errorf("%w: %s missing under %s", ErrDictRequired, dictFileName, dir)
		}
		return nil, fmt.Errorf("%w under %s", ErrNoIndexFiles, dir)
	}
	data, err := readFile(dir, dictFileName)
	if err != nil {
		return nil, err
	}
	d, epoch, err := parseDictFile(data)
	if err != nil {
		return nil, err
	}
	s := &IndexSet{Dict: d, Epoch: epoch}
	if data, err = readFile(dir, invertedFileName); err != nil {
		return nil, err
	}
	if s.Inverted, err = parseInverted(data, d); err != nil {
		return nil, err
	}
	return s, nil
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
