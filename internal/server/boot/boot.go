// Package boot is the shared flag, lake-open and index-adoption plumbing of
// the two front ends, cmd/gent (one-shot CLI) and cmd/gentd (server). Both
// need exactly the same sequence — read the lake and discovery flags, load
// the lake, attach the storage tier, adopt or build persisted indexes with
// the load-or-rebuild cascade — and before this package each carried
// its own copy, which is how front ends drift. It lives here once.
package boot

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// Flags are the settings both front ends take: where the lake and its
// indexes live, and how discovery runs.
type Flags struct {
	Lake          LakeOptions
	IndexDir      string
	Tau           float64
	TopK          int
	MaxCandidates int
}

// RegisterFlags defines the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Lake.Dir, "lake", "", "directory of lake CSVs (required to reclaim or serve)")
	fs.StringVar(&f.IndexDir, "index-dir", "", "load persisted lake indexes from this directory, or build and save them there")
	fs.StringVar(&f.Lake.StoreDir, "store-dir", "", "spill evicted interned tables to segment files under this directory (created if missing)")
	fs.IntVar(&f.Lake.MaxResidentMB, "max-resident-mb", 0, "cap resident interned-table memory at this many MiB (0 = unbounded; evicted forms reload from -store-dir, or re-intern without one)")
	fs.Float64Var(&f.Tau, "tau", 0.2, "set-overlap threshold τ")
	fs.IntVar(&f.TopK, "topk", 0, "first-stage LSH retrieval size (0 = search the whole lake)")
	fs.IntVar(&f.MaxCandidates, "max-candidates", 15, "candidate set cap")
	return f
}

// Config is the session configuration the flags describe.
func (f *Flags) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Discovery.Tau = f.Tau
	cfg.Discovery.MaxCandidates = f.MaxCandidates
	cfg.Discovery.FirstStageTopK = f.TopK
	return cfg
}

// Warnf receives non-fatal diagnostics (unreadable lake files, unusable
// persisted indexes). Nil discards them.
type Warnf func(format string, args ...any)

// Stderr is the Warnf the front ends use: one stderr line per diagnostic.
func Stderr(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

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
	// Action is "loaded" (persisted set adopted as-is) or "built" (nothing
	// usable: built fresh and saved).
	Action string
}

// Message is the one line a front end prints for the outcome at dir.
func (o IndexOutcome) Message(dir string) string {
	if o.Action == "loaded" {
		return "indexes loaded from " + dir
	}
	return "indexes built and saved to " + dir
}

// AdoptIndexes wires persisted discovery indexes under dir into the
// session: a loadable set that covers the lake and is stamped at its
// current epoch is injected as-is; anything else (unreadable files, a
// foreign dictionary, a lake that gained, lost or edited tables since the
// save) is warned about, rebuilt from the lake, and saved. A directory with
// no index files is a silent fresh build.
func AdoptIndexes(session *core.Reclaimer, dir string, warnf Warnf) (IndexOutcome, error) {
	ix, err := index.LoadIndexSetDir(dir)
	switch {
	case err != nil:
		if !errors.Is(err, index.ErrNoIndexFiles) {
			warnf.printf("warning: indexes at %s unusable (%v); rebuilding", dir, err)
		}
	case !ix.Inverted.Covers(session.Lake().Snapshot()):
		warnf.printf("warning: indexes at %s do not cover the lake; rebuilding", dir)
	default:
		err := session.UseIndexes(ix)
		if err == nil {
			return IndexOutcome{Action: "loaded"}, nil
		}
		if !errors.Is(err, lake.ErrDictMismatch) && !errors.Is(err, core.ErrSessionStarted) {
			return IndexOutcome{}, err
		}
		warnf.printf("warning: indexes at %s unusable for this lake (%v); rebuilding", dir, err)
	}
	if err := session.BuildIndexes().SaveDir(dir); err != nil {
		return IndexOutcome{}, err
	}
	return IndexOutcome{Action: "built"}, nil
}
