package lake

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"gent/internal/table"
)

// A persisted lake is a directory: catalog.bin (the table catalog, content
// fingerprints, epoch and the value dictionary in one flat, checksummed file;
// see catalog.go) beside a segments/ directory of per-table columnar segment
// files (table.SegmentStore). The catalog holds the raw tables; the segments
// hold their interned forms, so a re-opened lake serves interned forms by
// reading segments instead of re-hashing every cell — and because the
// dictionary rides along, every ID on disk keeps meaning exactly the value it
// did when persisted. Index sets saved against this lake (IndexSet.SaveDir)
// still bind after Open: the epoch and dictionary are restored verbatim, so
// the dictionary prefix stamp an index file carries verifies.
const (
	catalogFileName = "catalog.bin"
	// legacyCatalogFileName is the retired gob catalog (format v1). Open
	// refuses it with ErrCorruptCatalog; Persist removes it.
	legacyCatalogFileName = "catalog.gob"
	segmentsDirName       = "segments"
)

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
	c := &catalog{
		epoch:  s.epoch,
		tables: make([]*table.Table, 0, len(s.names)),
		fps:    make([]uint64, 0, len(s.names)),
		dict:   s.ist.dict,
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
		c.tables = append(c.tables, s.byName[n])
		c.fps = append(c.fps, s.fps[n])
	}
	b, err := appendCatalog(nil, c)
	if err != nil {
		return fmt.Errorf("lake: persist: %w", err)
	}
	err = table.WriteFileAtomic(filepath.Join(dir, catalogFileName), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("lake: persist: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, legacyCatalogFileName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("lake: persist: %w", err)
	}
	return nil
}

// Open reads a lake persisted by Persist. The catalog, epoch and dictionary
// are restored verbatim, in one read of the catalog file; interned forms are
// NOT loaded eagerly — each table re-materializes lazily from its segment
// file on first use, so opening a beyond-RAM lake is cheap and a budgeted
// cache (SetResidentBudget) keeps it that way. The segment store under dir is
// attached automatically as the spill/reload tier.
//
// A catalog that fails its checksum, is truncated, or is not format v2 (a
// directory holding only the gob catalog.gob of earlier versions) fails with
// ErrCorruptCatalog; a table shape that fails table.Validate, with
// table.ErrShape.
func Open(dir string) (*Lake, error) {
	c, err := readCatalog(filepath.Join(dir, catalogFileName))
	if errors.Is(err, fs.ErrNotExist) {
		if _, lerr := os.Stat(filepath.Join(dir, legacyCatalogFileName)); lerr == nil {
			err = fmt.Errorf("%w: %s is the retired gob format", ErrCorruptCatalog, legacyCatalogFileName)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("lake: open: %w", err)
	}
	st, err := table.NewSegmentStore(filepath.Join(dir, segmentsDirName))
	if err != nil {
		return nil, fmt.Errorf("lake: open: %w", err)
	}
	ist := newInternState(c.dict)
	ist.store = st
	names := make([]string, len(c.tables))
	byName := make(map[string]*table.Table, len(c.tables))
	fps := make(map[string]uint64, len(c.tables))
	for i, t := range c.tables {
		names[i] = t.Name
		byName[t.Name] = t
		fps[t.Name] = c.fps[i]
		// Mark every table as already interned: its IDs live in the segment
		// files, so the first access loads them instead of re-interning the
		// catalog in bulk.
		ist.ever[t] = c.fps[i]
	}
	l := &Lake{}
	l.snap.Store(&Snapshot{
		epoch:  c.epoch,
		names:  names,
		byName: byName,
		fps:    fps,
		ist:    ist,
	})
	return l, nil
}
