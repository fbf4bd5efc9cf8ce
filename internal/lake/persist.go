package lake

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gent/internal/table"
)

// A persisted lake is a directory: catalog.gob (the table catalog, content
// fingerprints, epoch and the value dictionary, one gob) beside a segments/
// directory of per-table columnar segment files (table.SegmentStore). The
// catalog holds the raw tables; the segments hold their interned forms, so a
// re-opened lake serves interned forms by block reads instead of re-hashing
// every cell — and because the dictionary rides along, every ID on disk
// keeps meaning exactly the value it did when persisted. Persisted index
// sets (index.SaveDir) saved against this lake remain adoptable after Open:
// the epoch and dictionary lineage are restored verbatim.
const (
	catalogFileName      = "catalog.gob"
	segmentsDirName      = "segments"
	catalogFormatVersion = 1
)

// catalogDisk is the serializable catalog.
type catalogDisk struct {
	Version int
	Seq     uint64
	Chain   uint64
	Names   []string
	Tables  []*table.Table
	Fps     []uint64
	Dict    []table.DictEntry
}

// Persist writes the current snapshot under dir: every table's interned form
// as a segment file, then the catalog. Interning happens first (so the
// persisted dictionary covers every segment), and the catalog is written
// last and atomically (table.WriteFileAtomic) — a crash mid-persist leaves
// either the previous catalog or none, never one that references missing
// state. A malformed table (table.ErrShape) fails the persist: Open would
// refuse to read it back.
func (l *Lake) Persist(dir string) error {
	s := l.Snapshot()
	s.EnsureInterned()
	st, err := table.NewSegmentStore(filepath.Join(dir, segmentsDirName))
	if err != nil {
		return fmt.Errorf("lake: persist: %w", err)
	}
	for _, n := range s.names {
		if err := s.byName[n].Validate(); err != nil {
			return fmt.Errorf("lake: persist: %w", err)
		}
		it := s.Interned(n)
		if it == nil {
			return fmt.Errorf("lake: persist: no interned form for %s", n)
		}
		if err := st.Write(it, s.fps[n], s.ist.dict); err != nil {
			return fmt.Errorf("lake: persist %s: %w", n, err)
		}
	}
	d := catalogDisk{
		Version: catalogFormatVersion,
		Seq:     s.epoch.Seq,
		Chain:   s.epoch.Chain,
		Names:   s.names,
		Tables:  make([]*table.Table, 0, len(s.names)),
		Fps:     make([]uint64, 0, len(s.names)),
		Dict:    s.ist.dict.Snapshot(),
	}
	for _, n := range s.names {
		d.Tables = append(d.Tables, s.byName[n])
		d.Fps = append(d.Fps, s.fps[n])
	}
	err = table.WriteFileAtomic(filepath.Join(dir, catalogFileName), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(d)
	})
	if err != nil {
		return fmt.Errorf("lake: persist: %w", err)
	}
	return nil
}

// Open reads a lake persisted by Persist. The catalog, epoch and dictionary
// are restored verbatim; interned forms are NOT loaded eagerly — each table
// re-materializes lazily from its segment file on first use, so opening a
// beyond-RAM lake is cheap and a budgeted cache (SetResidentBudget) keeps it
// that way. The segment store under dir is attached automatically as the
// spill/reload tier.
func Open(dir string) (*Lake, error) {
	f, err := os.Open(filepath.Join(dir, catalogFileName))
	if err != nil {
		return nil, fmt.Errorf("lake: open: %w", err)
	}
	var d catalogDisk
	err = gob.NewDecoder(f).Decode(&d)
	f.Close()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("lake: open: decoding catalog: %w", err)
	}
	if d.Version != catalogFormatVersion {
		return nil, fmt.Errorf("lake: open: catalog format v%d, want v%d", d.Version, catalogFormatVersion)
	}
	if len(d.Tables) != len(d.Names) || len(d.Fps) != len(d.Names) {
		return nil, fmt.Errorf("lake: open: catalog is inconsistent (%d names, %d tables, %d fingerprints)",
			len(d.Names), len(d.Tables), len(d.Fps))
	}
	dict, err := table.NewDictFromSnapshot(d.Dict)
	if err != nil {
		return nil, fmt.Errorf("lake: open: %w", err)
	}
	st, err := table.NewSegmentStore(filepath.Join(dir, segmentsDirName))
	if err != nil {
		return nil, fmt.Errorf("lake: open: %w", err)
	}
	ist := newInternState(dict)
	ist.store = st
	byName := make(map[string]*table.Table, len(d.Names))
	fps := make(map[string]uint64, len(d.Names))
	for i, n := range d.Names {
		t := d.Tables[i]
		if t == nil || t.Name != n {
			return nil, fmt.Errorf("lake: open: catalog entry %d does not match name %q", i, n)
		}
		if _, dup := byName[n]; dup {
			return nil, fmt.Errorf("lake: open: duplicate table name %q", n)
		}
		// The shapes came from disk: a ragged row or an out-of-range key must
		// fail here, not as an index panic deep inside a later query.
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("lake: open: %w", err)
		}
		byName[n] = t
		fps[n] = d.Fps[i]
		// Mark every table as already interned: its IDs live in the segment
		// files, so the first access loads blocks instead of re-interning
		// the catalog in bulk.
		ist.ever[t] = d.Fps[i]
	}
	l := &Lake{}
	l.snap.Store(&Snapshot{
		epoch:  Epoch{Seq: d.Seq, Chain: d.Chain},
		names:  d.Names,
		byName: byName,
		fps:    fps,
		ist:    ist,
	})
	return l, nil
}
