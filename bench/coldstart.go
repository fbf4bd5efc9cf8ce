package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/server/boot"
	"gent/internal/table"
)

// coldStart is the storage path: a lake persisted with Lake.Persist and
// IndexSet.SaveDir, read back. The primary operation is a start from cold:
// lake.Open → SetResidentBudget(a quarter of the interned footprint) →
// core.NewReclaimer → the first ReclaimContext (which builds the inverted
// substrate from segment loads). After every cold operation the same session
// reclaims every source once under the same budget — the aux series, a paged
// reclaim. A pass is several cold operations (scale.coldOps), each on the
// next source of the list. Set-up is the restart a service makes on a
// persisted lake: lake.Open → core.NewReclaimer → boot.AdoptIndexes (the
// persisted IndexSet loaded, checked against the lake and injected as-is).
//
// The write path is not in setup_s, as the issue had it: Persist + SaveDir of
// the same lake took 0.25 to 4.4 s on identical code here, with how busy the
// host's block device was with the discards of the run before (the root
// filesystem is mounted -o discard), and a metric gated at 25 % cannot carry
// that. The traced run still times both (lake.persist_ms, index.save_ms).
type coldStart struct {
	// inputs
	corpus    *lake.Lake
	ix        *index.IndexSet
	srcs      []*table.Table
	rot       *rotation
	footprint int64
	root      string
	dir       string // the persisted lake
	conf      core.Config
	coldOps   int

	// state
	lake    *lake.Lake
	session *core.Reclaimer
}

func newColdStart() workload { return &coldStart{} }

func (w *coldStart) name() string { return "lake_coldstart" }

func (w *coldStart) generate(in inputs, dir string) error {
	// benchmark.BuildLargePreset's recipe (TP-TR Small core in open-data
	// volume) with the open data filtered to valid tables.
	b, err := buildSmall(in.scale)
	if err != nil {
		return err
	}
	if _, err := addOpenData(b.Lake, in.scale.largeTables-b.Lake.Snapshot().Len(), corpusSeed+3); err != nil {
		return err
	}
	if len(b.Sources) == 0 {
		return fmt.Errorf("corpus has no sources")
	}
	w.corpus, w.srcs, w.root, w.conf = b.Lake, b.Sources, dir, core.DefaultConfig()
	w.rot = newRotation(b.Sources, in.seed)
	w.coldOps = min(in.scale.coldOps, len(w.srcs))
	w.corpus.EnsureInterned()
	w.footprint = w.corpus.CacheStats().ResidentBytes
	w.ix = index.BuildIndexSetSharded(w.corpus.Snapshot(), w.conf.IndexShards)
	w.dir = filepath.Join(dir, "persist")
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	if err := w.corpus.Persist(w.dir); err != nil {
		return err
	}
	return w.ix.SaveDir(filepath.Join(w.dir, "index"))
}

func (w *coldStart) setUp(context.Context) error {
	l, err := lake.Open(w.dir)
	if err != nil {
		return err
	}
	w.lake, w.session = l, core.NewReclaimer(l, w.conf)
	out, err := boot.AdoptIndexes(w.session, filepath.Join(w.dir, "index"), nil)
	if err == nil && out.Action != "loaded" {
		// Anything else rebuilds and saves: the write path set-up leaves out.
		err = fmt.Errorf("persisted indexes were not adopted as-is (%s)", out.Action)
	}
	return err
}

func (w *coldStart) tearDown() { w.lake, w.session = nil, nil }

// open is the cold path up to a session: nothing resident, budget set.
func (w *coldStart) open() (*lake.Lake, *core.Reclaimer, error) {
	l, err := lake.Open(w.dir)
	if err != nil {
		return nil, nil, err
	}
	l.SetResidentBudget(w.footprint / 4)
	return l, core.NewReclaimer(l, w.conf), nil
}

func (w *coldStart) pass(ctx context.Context, rec *recorder) error {
	for k := 0; k < w.coldOps; k++ {
		order := w.rot.next()
		src := w.srcs[order[0]]
		t0 := time.Now()
		l, session, err := w.open()
		if err != nil {
			return err
		}
		res, err := session.ReclaimContext(ctx, src)
		d := time.Since(t0)
		rec.observe(opPrimary, d)
		if err != nil {
			rec.fail("cold %s: %v", src.Name, err)
		} else {
			rec.replayable(d, res.Timing.Total())
			rec.output(src.Name, qualityOf(res))
		}
		w.lake, w.session = l, session

		for _, i := range order {
			src := w.srcs[i]
			t0 := time.Now()
			res, err := session.ReclaimContext(ctx, src)
			rec.observe(opAux, time.Since(t0))
			if err != nil {
				rec.fail("paged %s: %v", src.Name, err)
				continue
			}
			rec.output(src.Name, qualityOf(res))
		}
	}
	return nil
}

// setupSpans times the write path layer by layer, and the index read path
// (LoadIndexSetDir) set-up takes after the lake.Open the cold operations time.
func (w *coldStart) setupSpans(_ context.Context, tr *tracer, lc layerCounts) error {
	dir := filepath.Join(w.root, "persist-traced")
	defer os.RemoveAll(dir)
	endOp := tr.beginOp("setup")
	defer endOp()
	end := tr.begin("lake.persist")
	err := w.corpus.Persist(dir)
	end()
	if err != nil {
		return err
	}
	end = tr.begin("index.save")
	err = w.ix.SaveDir(filepath.Join(dir, "index"))
	end()
	if err != nil {
		return err
	}
	end = tr.begin("index.load")
	_, err = index.LoadIndexSetDir(filepath.Join(dir, "index"))
	end()
	if err != nil {
		return err
	}
	lc.add("table.dict_values", float64(w.corpus.Dict().Len()))
	return nil
}

func (w *coldStart) tracedPass(ctx context.Context, tr *tracer, lc layerCounts) error {
	for k := 0; k < w.coldOps; k++ {
		if err := w.tracedCold(ctx, tr, lc, w.srcs[w.rot.next()[0]]); err != nil {
			return err
		}
	}
	return nil
}

// tracedCold is one cold operation layer by layer — open, substrate build
// (the lazy build the session's first query performs), then the pipeline —
// and the paged sweep behind it.
func (w *coldStart) tracedCold(ctx context.Context, tr *tracer, lc layerCounts, src *table.Table) error {
	endOp := tr.beginOp("op")
	end := tr.begin("lake.open")
	l, err := lake.Open(w.dir)
	end()
	if err != nil {
		endOp()
		return err
	}
	l.SetResidentBudget(w.footprint / 4)
	end = tr.begin("index.build")
	inv := index.BuildInvertedSharded(l.Snapshot(), w.conf.IndexShards)
	end()
	_, err = replayLayers(ctx, tr, lc, l, inv, src, w.conf)
	endOp()
	if err != nil {
		return err
	}

	// The paged sweep stays whole-pipeline (one span per reclaim): what the
	// traced run adds here is the resident cache's counters around it.
	session := core.NewReclaimer(l, w.conf)
	if err := session.UseIndexes(&index.IndexSet{Inverted: inv}); err != nil {
		return err
	}
	before := l.CacheStats()
	for _, src := range w.srcs {
		end := tr.beginOp("core.reclaim")
		_, err := session.ReclaimContext(ctx, src)
		end()
		if err != nil {
			return err
		}
	}
	after := l.CacheStats()
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	// Counters of the latest sweep: each starts from a fresh Open, so they
	// repeat exactly and summing them over sweeps would only scale them.
	if hits+misses > 0 {
		lc["lake.cache_hit_ratio"] = hits / (hits + misses)
	}
	lc["lake.evictions"] = float64(after.Evictions - before.Evictions)
	lc["lake.segment_loads"] = float64(after.Loads - before.Loads)
	lc["lake.resident_mb"] = float64(after.ResidentBytes) / (1 << 20)
	return nil
}

func (w *coldStart) check(ctx context.Context) (int, []string) {
	return checkSources(ctx, w.lake, w.session, w.conf, w.rot.sample3())
}
