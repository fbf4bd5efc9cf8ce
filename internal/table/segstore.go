package table

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
)

// SegmentStore is a directory of segment files keyed by table name — the
// disk tier the lake's resident cache spills interned forms to and re-loads
// them from. Every write stamps the table's content fingerprint and the
// dictionary prefix the IDs were assigned under; every load verifies both, so
// a stale segment (the table changed, or the store belongs to a different
// lake lineage) is rejected rather than served.
//
// The store itself is stateless between calls — file presence and the
// stamped footers are the only source of truth — so it is safe for concurrent
// use as long as two writers never spill different contents under one name
// concurrently (the lake serializes spills per lineage).
type SegmentStore struct {
	dir string
}

// NewSegmentStore opens (creating if needed) a segment directory.
func NewSegmentStore(dir string) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("table: segment store: %w", err)
	}
	return &SegmentStore{dir: dir}, nil
}

// SegmentPath returns the file a table's segment lives at. Names are
// path-escaped, so any valid table name maps to exactly one flat file.
func (st *SegmentStore) SegmentPath(name string) string {
	return filepath.Join(st.dir, url.PathEscape(name)+".seg")
}

// Write spills an interned form, skipping the write when an existing segment
// already holds exactly this content under a still-valid dictionary stamp —
// the common case when a form is evicted, re-loaded and evicted again.
// fp is Fingerprint of it.Table.
func (st *SegmentStore) Write(it *Interned, fp uint64, d *Dict) error {
	path := st.SegmentPath(it.Table.Name)
	if seg, err := OpenSegmentFile(path); err == nil &&
		seg.Name == it.Table.Name && seg.TableFP == fp &&
		d.VerifyPrefixStamp(seg.DictLen, seg.DictFP) {
		return nil
	}
	dictLen, dictFP := d.PrefixStamp()
	return WriteSegmentFile(path, it, fp, dictLen, dictFP)
}

// Load resolves a table's interned form from its segment, verifying the
// segment was written for exactly these contents (fp = Fingerprint(t))
// under a prefix of this dictionary. The file is read whole in one read and
// its footer and blocks are parsed from memory. Any mismatch or corruption
// is an error; callers fall back to re-interning.
func (st *SegmentStore) Load(t *Table, fp uint64, d *Dict) (*Interned, error) {
	path := st.SegmentPath(t.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	return loadSegment(path, data, t, fp, d)
}

// loadSegment is Load on a segment file's bytes, read from path.
func loadSegment(path string, data []byte, t *Table, fp uint64, d *Dict) (*Interned, error) {
	seg, err := readSegmentMeta(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, path, err)
	}
	seg.path = path
	if seg.Name != t.Name {
		return nil, fmt.Errorf("%w: %s: segment written for table %q, want %q",
			ErrSegmentCorrupt, path, seg.Name, t.Name)
	}
	if seg.TableFP != fp {
		return nil, fmt.Errorf("%w: %s: content fingerprint mismatch (table %s changed since spill)",
			ErrSegmentCorrupt, path, t.Name)
	}
	if !d.VerifyPrefixStamp(seg.DictLen, seg.DictFP) {
		return nil, fmt.Errorf("%w: %s: dictionary prefix stamp does not verify",
			ErrSegmentCorrupt, path)
	}
	return seg.decode(data, t)
}
