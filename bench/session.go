package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"gent/internal/benchmark"
	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
	"gent/internal/tpch"
)

// scale sizes the generated corpora. fullScale is the benchmark; tinyScale
// exists so `go test -short` can run every workload in seconds.
type scale struct {
	tptrBase, tptrMaxRows int // tptr_bigsrc TPC-H base and source-row cap
	openTables            int // open-data background tables of tptr_bigsrc and wide_candidates
	wideSlices            int // wide_candidates slices per original
	wideBase, wideMaxRows int // wide_candidates TPC-H base and source-row cap
	wideMaxCandidates     int
	smallBase, smallRows  int // TP-TR Small core of lake_coldstart and gentd_churn
	largeTables           int // lake_coldstart corpus size
	coldOps               int // lake_coldstart cold operations per pass
	churnOpen             int // gentd_churn resident open-data tables: enough that its set-up is over half a second
	churnPool, churnBatch int // gentd_churn spare tables, and Put+Drop pairs per Apply
	churnCycles           int // gentd_churn cycles per pass
}

var (
	fullScale = scale{tptrBase: 250, tptrMaxRows: 600, openTables: 2400, wideSlices: 6, wideBase: 60, wideMaxRows: 300,
		wideMaxCandidates: 160, smallBase: 30, smallRows: 200, largeTables: 1500, coldOps: 5,
		churnOpen: 3000, churnPool: 64, churnBatch: 8, churnCycles: 4}
	tinyScale = scale{tptrBase: 20, tptrMaxRows: 40, openTables: 40, wideSlices: 2, wideBase: 20, wideMaxRows: 40,
		wideMaxCandidates: 160, smallBase: 10, smallRows: 30, largeTables: 80, coldOps: 2,
		churnOpen: 40, churnPool: 8, churnBatch: 2, churnCycles: 1}
)

// sessionWorkload is the library path: a warm core.Reclaimer session over a
// CSV-loaded lake, every source reclaimed sequentially through
// Reclaimer.ReclaimContext, then the whole list once through
// Reclaimer.ReclaimAllContext (the aux series, per-source ms in batch mode).
// tptr_bigsrc and wide_candidates differ only in corpus and candidate cap.
type sessionWorkload struct {
	wname string
	build func(sc scale) (*benchmark.TPTR, error)
	cfg   func(sc scale) core.Config

	// inputs
	lakeDir string
	srcs    []*table.Table // corpus order: also the batch call's, since a batch's makespan depends on which sources come last
	rot     *rotation      // the sequential sweeps' order
	conf    core.Config

	// state
	lake    *lake.Lake
	session *core.Reclaimer
	timed   int // timed passes so far
}

func (w *sessionWorkload) name() string { return w.wname }

func buildBigSrc(sc scale) (*benchmark.TPTR, error) {
	opts := benchmark.DefaultTPTROptions()
	opts.Scale = tpch.Scale{Base: sc.tptrBase, Seed: corpusSeed}
	opts.Seed = corpusSeed
	opts.MaxSourceRows = sc.tptrMaxRows
	return benchmark.BuildTPTR("tp-tr-bigsrc", opts)
}

// buildWide is benchmark.BuildWidePreset's recipe — a TP-TR base whose
// variants are too hollow to saturate the integration, plus thin near-clean
// slices of every original — at a base, row cap and slice count small enough
// for a pass to take seconds (the preset's own 240/1000/96 takes a minute).
func buildWide(sc scale) (*benchmark.TPTR, error) {
	opts := benchmark.DefaultTPTROptions()
	opts.Scale = tpch.Scale{Base: sc.wideBase, Seed: corpusSeed}
	opts.Seed = corpusSeed
	opts.NullRate, opts.ErrRate = 0.9, 0.5
	opts.MaxSourceRows = sc.wideMaxRows
	b, err := benchmark.BuildTPTR("tp-tr-wide", opts)
	if err != nil {
		return nil, err
	}
	return b, benchmark.AddWideSlices(b, sc.wideSlices, corpusSeed+7)
}

func newBigSrc() workload {
	return &sessionWorkload{wname: "tptr_bigsrc", build: buildBigSrc,
		cfg: func(scale) core.Config { return core.DefaultConfig() }}
}

func newWide() workload {
	return &sessionWorkload{wname: "wide_candidates", build: buildWide,
		cfg: func(sc scale) core.Config {
			cfg := core.DefaultConfig()
			cfg.Discovery.MaxCandidates = sc.wideMaxCandidates
			return cfg
		}}
}

// buildSmall is the TP-TR Small benchmark (benchmark.DefaultTPTROptions at
// corpusSeed): the reclaimable core of the two lake-scale workloads.
func buildSmall(sc scale) (*benchmark.TPTR, error) {
	opts := benchmark.DefaultTPTROptions()
	opts.Scale = tpch.Scale{Base: sc.smallBase, Seed: corpusSeed}
	opts.Seed = corpusSeed
	opts.MaxSourceRows = sc.smallRows
	return benchmark.BuildTPTR("tp-tr-small", opts)
}

// addOpenData embeds a corpus's reclaimable core in n open-data background
// tables and returns their names. benchmark.AddOpenData can draw the same
// measure column twice; such a table survives neither the CSV loader nor the
// wire codec (both reject duplicate columns), so the harness over-generates
// and keeps the first n valid ones.
func addOpenData(l *lake.Lake, n int, seed int64) ([]string, error) {
	gen := lake.New()
	benchmark.AddOpenData(gen, n+n/3+8, seed)
	snap := gen.Snapshot()
	muts := make([]lake.Mutation, 0, n)
	names := make([]string, 0, n)
	for _, name := range snap.Names() {
		if len(muts) == n {
			break
		}
		if t := snap.Get(name); t.Validate() == nil {
			muts = append(muts, lake.Put(t))
			names = append(names, name)
		}
	}
	if len(muts) < n {
		return nil, fmt.Errorf("open data: only %d of %d generated tables are valid", len(muts), n)
	}
	if _, err := l.Apply(context.Background(), muts...); err != nil {
		return nil, fmt.Errorf("open data: %w", err)
	}
	return names, nil
}

func (w *sessionWorkload) generate(in inputs, dir string) error {
	sc := in.scale
	b, err := w.build(sc)
	if err != nil {
		return err
	}
	if len(b.Sources) == 0 {
		return fmt.Errorf("corpus has no sources")
	}
	w.lakeDir = filepath.Join(dir, "lake")
	w.srcs, w.rot = b.Sources, newRotation(b.Sources, in.seed)
	w.conf = w.cfg(sc)
	if _, err := addOpenData(b.Lake, sc.openTables, corpusSeed+3); err != nil {
		return err
	}
	if err := b.Lake.SaveDir(w.lakeDir); err != nil {
		return fmt.Errorf("writing lake: %w", err)
	}
	return nil
}

// rotation hands out the source list in a new rotation for every sweep: the
// corpus order, started at a source the seed picks and moved on by a fixed
// stride each time. Two reasons. An operation's latency depends on what ran
// before it — it inherits the collector's debt for its predecessor's garbage,
// and collections fall at fixed points of a fixed list (shuffling
// tptr_bigsrc's list moved op_p50_ms between 82 and 100 ms) — so a rotation
// keeps every operation's predecessor whatever the seed; and by starting each
// sweep elsewhere, an operation meets the collector's cycle at a different
// phase every pass, so the pool holds a mix of phases instead of the one the
// seed's start froze in.
type rotation struct {
	srcs   []*table.Table // corpus order; an operation's id is its index here
	offset int            // the seed's starting source
	sweeps int            // sweeps handed out so far
}

func newRotation(srcs []*table.Table, seed int64) *rotation {
	n := int64(len(srcs))
	return &rotation{srcs: srcs, offset: int((seed%n + n) % n)}
}

// next returns the source indices of the next sweep, in order.
func (r *rotation) next() []int {
	n := len(r.srcs)
	stride := 1
	for _, s := range []int{7, 5, 3} {
		if n%s != 0 {
			stride = s
			break
		}
	}
	start := (r.offset + r.sweeps*stride) % n
	r.sweeps++
	order := make([]int, n)
	for i := range order {
		order[i] = (start + i) % n
	}
	return order
}

// sample3 picks three sources spread over the corpus order (by query class,
// so the three differ in shape), moved along by the seed.
func (r *rotation) sample3() []*table.Table {
	n := len(r.srcs)
	if n <= 3 {
		return r.srcs
	}
	return []*table.Table{r.srcs[r.offset%n], r.srcs[(r.offset+n/3)%n], r.srcs[(r.offset+2*n/3)%n]}
}

// openSession is the set-up every CSV-backed workload shares: parse the
// directory, intern every table, build the session's substrates.
func openSession(dir string, cfg core.Config) (*lake.Lake, *core.Reclaimer, error) {
	l, errs := lake.LoadDir(dir)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("loading %s: %d unreadable files, first: %w", dir, len(errs), errs[0])
	}
	l.EnsureInterned()
	session := core.NewReclaimer(l, cfg)
	session.BuildIndexes()
	return l, session, nil
}

func (w *sessionWorkload) setUp(context.Context) error {
	var err error
	w.lake, w.session, err = openSession(w.lakeDir, w.conf)
	return err
}

func (w *sessionWorkload) tearDown() { w.lake, w.session = nil, nil }

func qualityOf(res *core.Result) quality {
	return quality{eis: res.Report.EIS, recall: res.Report.Recall, precision: res.Report.Precision,
		digest: table.Fingerprint(res.Reclaimed)}
}

func (w *sessionWorkload) pass(ctx context.Context, rec *recorder) error {
	for _, i := range w.rot.next() {
		src := w.srcs[i]
		t0 := time.Now()
		res, err := w.session.ReclaimContext(ctx, src)
		d := time.Since(t0)
		rec.observe(opPrimary, d)
		if err != nil {
			rec.fail("%s: %v", src.Name, err)
			continue
		}
		rec.replayable(d, res.Timing.Total())
		rec.output(src.Name, qualityOf(res))
	}
	rec.endSection()
	// The batch rides on every other timed pass: it costs most of a
	// sequential sweep, and its one wall time per call needs fewer repeats
	// than the per-source latencies do.
	if rec.warm {
		return nil
	}
	w.timed++
	if w.timed%2 == 0 {
		return nil
	}

	t0 := time.Now()
	items, err := w.session.ReclaimAllContext(ctx, w.srcs, 0)
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	// One batch call is one measurement: every item shares its wall, so the
	// series is per-source milliseconds in batch mode.
	rec.observeN(opAux, wall, len(items))
	for _, it := range items {
		if it.Err != nil {
			rec.fail("batch %s: %v", it.Source.Name, it.Err)
			continue
		}
		rec.output(it.Source.Name, qualityOf(it.Result))
	}
	return nil
}

func (w *sessionWorkload) tracedPass(ctx context.Context, tr *tracer, lc layerCounts) error {
	ix := w.session.BuildIndexes()
	verify := w.session
	if lc["ops"] > 0 {
		verify = nil // checked on the first traced pass
	}
	for _, i := range w.rot.next() {
		if err := replayOp(ctx, tr, lc, w.lake, ix.Inverted, w.srcs[i], w.conf, verify); err != nil {
			return err
		}
	}
	// The batch from outside: one span for the call, and how busy it kept
	// the workers it had (Σ item pipeline time ÷ (wall × workers)).
	end := tr.beginOp("core.batch")
	t0 := time.Now()
	items, err := w.session.ReclaimAllContext(ctx, w.srcs, 0)
	wall := time.Since(t0)
	end()
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	var busy time.Duration
	for _, it := range items {
		if it.Err == nil {
			busy += it.Result.Timing.Total()
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(w.srcs))
	lc.add("core.batch_wall_ms", ms(wall))
	lc.add("core.batch_busy_ratio", float64(busy)/(float64(wall)*float64(workers)))
	lc.add("core.batches", 1)
	return nil
}

// setupSpans measures the set-up's layers one call at a time, on a fresh
// copy of the state (the workload's own session is left alone).
func (w *sessionWorkload) setupSpans(_ context.Context, tr *tracer, lc layerCounts) error {
	_, _, err := csvSetupSpans(tr, lc, w.lakeDir, w.conf)
	return err
}

// csvSetupSpans is setupSpans for every CSV-backed workload; it returns the
// lake and substrates it built.
func csvSetupSpans(tr *tracer, lc layerCounts, dir string, cfg core.Config) (*lake.Lake, *index.IndexSet, error) {
	endOp := tr.beginOp("setup")
	defer endOp()
	end := tr.begin("lake.open")
	l, errs := lake.LoadDir(dir)
	end()
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("loading %s: %w", dir, errs[0])
	}
	end = tr.begin("lake.intern")
	l.EnsureInterned()
	end()
	end = tr.begin("index.build")
	ix := index.BuildIndexSetSharded(l.Snapshot(), cfg.IndexShards)
	end()
	lc.add("table.dict_values", float64(l.Dict().Len()))
	return l, ix, nil
}

func (w *sessionWorkload) check(ctx context.Context) (int, []string) {
	return checkSources(ctx, w.lake, w.session, w.conf, w.rot.sample3())
}
