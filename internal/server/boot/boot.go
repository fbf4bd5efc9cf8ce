// Package boot is the shared lake-open and index-adoption plumbing of the
// two front ends, cmd/gent (one-shot CLI) and cmd/gentd (server). Both need
// exactly the same sequence — load the lake, attach the storage tier, adopt
// or build persisted indexes with the load/catch-up/rebuild cascade — and
// before this package each carried its own copy, which is how front ends
// drift. The cascade lives here once; the front ends only format its
// outcome.
package boot

import (
	"errors"
	"fmt"

	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// Warnf receives non-fatal diagnostics (unreadable lake files, unusable
// persisted indexes). Nil discards them.
type Warnf func(format string, args ...any)

func (f Warnf) printf(format string, args ...any) {
	if f != nil {
		f(format, args...)
	}
}

// LakeOptions configure OpenLake.
type LakeOptions struct {
	// Dir is the lake directory (CSV files), required.
	Dir string
	// StoreDir, when set, attaches a segment store evicted interned forms
	// spill to and reload from (created if missing).
	StoreDir string
	// MaxResidentMB, when > 0, caps resident interned-form memory.
	MaxResidentMB int
}

// OpenLake loads the lake and wires the beyond-RAM tier — the shared
// front-end sequence behind cmd/gent's -lake/-store-dir/-max-resident-mb
// and gentd's identical flags. Unreadable files are warned about and
// skipped; an empty lake is an error.
func OpenLake(o LakeOptions, warnf Warnf) (*lake.Lake, error) {
	l, errs := lake.LoadDir(o.Dir)
	for _, e := range errs {
		warnf.printf("warning: %v", e)
	}
	if l.Snapshot().Len() == 0 {
		return nil, fmt.Errorf("no tables loaded from %s", o.Dir)
	}
	if o.StoreDir != "" {
		st, err := table.NewSegmentStore(o.StoreDir)
		if err != nil {
			return nil, err
		}
		l.SetSegmentStore(st)
	}
	if o.MaxResidentMB > 0 {
		l.SetResidentBudget(int64(o.MaxResidentMB) << 20)
	}
	return l, nil
}

// IndexOutcome reports what AdoptIndexes did.
type IndexOutcome struct {
	// Action is "loaded" (persisted set adopted as-is), "caught_up" (the
	// add-only epoch gap was bridged incrementally and the refreshed set
	// saved back), or "built" (nothing usable: built fresh and saved).
	Action string
	// Added is the table count a catch-up inserted.
	Added int
}

// AdoptIndexes wires persisted discovery indexes under dir into the
// session, falling back through the cascade cmd/gent -index-dir has always
// used:
//
//   - a loadable, covering, epoch-current set is injected as-is;
//   - a set that merely predates tables now in the lake — the persisted
//     epoch is a prefix of the lake's history — is caught up with an
//     incremental delta and saved back;
//   - anything else (unreadable files, a foreign dictionary, a non-add-only
//     gap) is warned about, rebuilt from the lake, and saved.
//
// A directory with no index files is a silent fresh build.
func AdoptIndexes(session *core.Reclaimer, dir string, warnf Warnf) (IndexOutcome, error) {
	l := session.Lake()
	snap := l.Snapshot()
	loaded, caughtUp := false, 0
	ix, err := index.LoadIndexSetDir(dir)
	switch {
	case err != nil:
		if !errors.Is(err, index.ErrNoIndexFiles) {
			warnf.printf("warning: indexes at %s unusable (%v); rebuilding", dir, err)
		}
	case ix.Inverted == nil || !ix.Inverted.Covers(snap) || ix.LSH != nil && !ix.LSH.Covers(snap) ||
		ix.Semantic != nil && !ix.Semantic.Covers(snap):
		if n, ok := catchUpIndexes(l, snap, ix, warnf); ok {
			caughtUp = n
			loaded = true
		} else {
			warnf.printf("warning: indexes at %s do not cover the lake and the gap is not add-only; rebuilding", dir)
		}
	default:
		if err := session.UseIndexes(ix); err != nil {
			if !errors.Is(err, lake.ErrDictMismatch) && !errors.Is(err, core.ErrSessionStarted) {
				return IndexOutcome{}, err
			}
			warnf.printf("warning: indexes at %s unusable for this lake (%v); rebuilding", dir, err)
		} else {
			loaded = true
		}
	}
	switch {
	case caughtUp > 0:
		if err := session.UseIndexes(ix); err != nil {
			return IndexOutcome{}, err
		}
		if err := ix.SaveDir(dir); err != nil {
			return IndexOutcome{}, err
		}
		return IndexOutcome{Action: "caught_up", Added: caughtUp}, nil
	case loaded:
		return IndexOutcome{Action: "loaded"}, nil
	default:
		if err := session.BuildIndexes().SaveDir(dir); err != nil {
			return IndexOutcome{}, err
		}
		return IndexOutcome{Action: "built"}, nil
	}
}

// catchUpIndexes applies the persisted-epoch delta: when every table the
// set indexed is unchanged (its dictionary needs no value the covered
// tables don't have; every kept name has its persisted schema) and the lake
// only grew, the missing tables are inserted incrementally. ok=false means
// the gap is not add-only — a schema changed, or covered tables hold values
// the persisted dictionary has never seen — and the caller must rebuild.
// snap is the lake's snapshot the gap is judged against; the catch-up itself
// runs on the snapshot the dictionary adoption publishes (CatchUp re-checks
// the gap there).
func catchUpIndexes(l *lake.Lake, snap *lake.Snapshot, ix *index.IndexSet, warnf Warnf) (added int, ok bool) {
	covered, missing, ok := ix.Gap(snap)
	if !ok || len(missing) == 0 {
		return 0, false
	}
	// Adopt the persisted dictionary scoped to the tables the set covers:
	// values of the still-unindexed tables legitimately postdate it and will
	// grow the (append-only) dictionary.
	if err := l.AdoptDictCovering(ix.Dict, covered); err != nil {
		warnf.printf("warning: indexes keyed under a stale dictionary (%v)", err)
		return 0, false
	}
	return ix.CatchUp(l.Snapshot())
}
