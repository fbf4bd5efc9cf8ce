// Package lake implements the data lake substrate: a catalog of autonomous,
// key-less, metadata-unreliable tables, with an in-memory store, a CSV
// directory backend, and the corpus statistics the paper reports in Table I.
//
// The catalog is epoch-versioned. Mutations go through Apply (Put, Drop,
// Rename), each batch producing a new immutable Snapshot stamped with an
// Epoch; readers pin the snapshot they start on (one atomic load, no locks)
// and are immune to concurrent mutation. Every read goes through a pinned
// Snapshot; the Lake itself only mutates and publishes.
//
// Every lake owns a table.Dict — the lake-wide value dictionary — and caches
// an interned (columnar ID) form of each table. Interning happens once, the
// first time a substrate build asks for it (or eagerly via EnsureInterned),
// and every later index build, discovery probe or alignment runs on the
// cached IDs instead of re-hashing value strings. The dictionary is
// append-only across epochs: a Drop tombstones its values (they keep their
// IDs) and never renumbers, which is what lets substrates be maintained
// incrementally from epoch to epoch.
package lake

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gent/internal/par"
	"gent/internal/table"
)

// Lake is an epoch-versioned catalog of data lake tables addressed by name.
// All methods are safe for concurrent use: mutations (Apply) serialize on an
// internal lock and publish immutable snapshots; readers pin one with
// Snapshot and are lock-free. The value dictionary is fixed by New or Open
// for the lake's whole life.
type Lake struct {
	// mu serializes mutations (Apply); readers never take it.
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
}

// New returns an empty lake, at the zero Epoch, with a fresh value
// dictionary.
func New() *Lake {
	l := &Lake{}
	l.snap.Store(&Snapshot{
		byName: make(map[string]*table.Table),
		ist:    newInternState(table.NewDict()),
	})
	return l
}

// Dict returns the current snapshot's value dictionary. It and
// EnsureInterned remain only because the bench/ harness compiles against
// them; new code reads both off a pinned Snapshot.
func (l *Lake) Dict() *table.Dict { return l.Snapshot().Dict() }

// EnsureInterned interns every table of the current snapshot that has no
// cached interned form yet.
func (l *Lake) EnsureInterned() { l.Snapshot().EnsureInterned() }

// ErrDictMismatch reports persisted or prebuilt indexes keyed under a
// dictionary other than the lake's: their IDs would resolve to the wrong
// values, so callers must rebuild.
var ErrDictMismatch = errors.New("lake: indexes keyed under a different dictionary")

// LoadDir reads every *.csv file under dir (recursively) into a lake,
// parsing files concurrently. Unreadable or malformed files are skipped and
// reported in the returned error list — a real lake always has a few broken
// tables and discovery must survive them. The whole directory lands as one
// Apply batch: the lake is at epoch Seq 1, with tables in sorted-name order.
func LoadDir(dir string) (*Lake, []error) {
	var paths []string
	var errs []error
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			errs = append(errs, err)
			return nil
		}
		if !d.IsDir() && strings.EqualFold(filepath.Ext(path), ".csv") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		errs = append(errs, err)
	}

	type loaded struct {
		t   *table.Table
		err error
	}
	results := make([]loaded, len(paths))
	par.For(context.Background(), len(paths), runtime.GOMAXPROCS(0), func(_, i int) {
		results[i].t, results[i].err = table.LoadCSVFile(paths[i])
	})

	tables := make([]*table.Table, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		tables = append(tables, r.t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	l := New()
	if len(tables) > 0 {
		muts := make([]Mutation, len(tables))
		for i, t := range tables {
			muts[i] = Put(t)
		}
		if _, err := l.Apply(context.Background(), muts...); err != nil {
			errs = append(errs, err)
		}
	}
	return l, errs
}

// SaveDir writes every table of the current snapshot as dir/<name>.csv.
func (l *Lake) SaveDir(dir string) error {
	for _, t := range l.Snapshot().Tables() {
		if err := table.SaveCSVFile(filepath.Join(dir, t.Name+".csv"), t); err != nil {
			return fmt.Errorf("lake: saving %s: %w", t.Name, err)
		}
	}
	return nil
}

// Stats summarizes a lake the way Table I does.
type Stats struct {
	Tables  int
	Cols    int
	AvgRows float64
	// SizeBytes approximates on-disk CSV size.
	SizeBytes int64
}

// ComputeStats derives corpus statistics from one pinned snapshot, so every
// field describes the same epoch even while Apply runs concurrently.
func (l *Lake) ComputeStats() Stats {
	tables := l.Snapshot().Tables()
	s := Stats{Tables: len(tables)}
	rows := 0
	for _, t := range tables {
		s.Cols += t.NumCols()
		rows += t.NumRows()
		for _, c := range t.Cols {
			s.SizeBytes += int64(len(c) + 1)
		}
		for _, r := range t.Rows {
			for _, v := range r {
				s.SizeBytes += int64(len(v.Text()) + 1)
			}
		}
	}
	if s.Tables > 0 {
		s.AvgRows = float64(rows) / float64(s.Tables)
	}
	return s
}

// String renders stats as a Table I row.
func (s Stats) String() string {
	return fmt.Sprintf("%d tables, %d cols, %.1f avg rows, %.2f MB",
		s.Tables, s.Cols, s.AvgRows, float64(s.SizeBytes)/(1<<20))
}
