package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one benchmark scenario. The runner owns timing discipline
// (repeated set-ups, warm-up, GC fences, pass fitting); a workload owns its
// inputs and its operations. generate is the harness's work and is never
// timed; everything else drives the program under measurement.
type workload interface {
	name() string
	// generate builds the seeded inputs and writes the on-disk part under dir.
	generate(in inputs, dir string) error
	// setUp takes the generated input to first-query-ready. The runner calls
	// it several times (tearDown between) and keeps the last state.
	setUp(ctx context.Context) error
	tearDown()
	// pass runs the workload's fixed operation list once, recording every
	// operation into rec.
	pass(ctx context.Context, rec *recorder) error
	// setupSpans repeats the set-up one layer call at a time under spans.
	setupSpans(ctx context.Context, tr *tracer, lc layerCounts) error
	// tracedPass replays the operation list through each layer's public
	// functions, recording spans into tr and counts into lc.
	tracedPass(ctx context.Context, tr *tracer, lc layerCounts) error
	// check runs the oracles (outside any timed region) and returns how many
	// checks it made and one line per mismatch.
	check(ctx context.Context) (int, []string)
}

// Latency classes. opPrimary is the workload's headline operation; opAux is
// its second kind (batch item, paged reclaim, cache hit) — kept as its own
// series because a percentile across a bimodal mix describes neither mode.
const (
	opPrimary = "op"
	opAux     = "aux"
	opApply   = "apply"
)

// metric is one named reading. N is the sample count behind a percentile or
// median (0 when the reading is not a sample statistic).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report is one workload run.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Traced     bool     `json:"traced"`
	Passes     int      `json:"passes"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	Digest     string   `json:"digest"`
	Metrics    []metric `json:"metrics"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

func (rep *report) add(name string, v float64, unit string, n int) {
	rep.Metrics = append(rep.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (rep *report) get(name string) (metric, bool) {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// corpusSeed seeds every corpus generator: TPC-H data, the 26 queries, the
// perturbed variants and slices, the open-data background. It is a constant
// because what a reclaim costs is a property of the query shapes and of which
// background tables happen to overlap a source column (over six corpus seeds
// tptr_bigsrc's op_p50_ms ranged 68–117 ms): a benchmark whose -seed picked
// the corpus would report the seed, not the code, and no bound would hold.
const corpusSeed = 11

// inputs parameterize a workload's generate. seed drives the operations over
// the fixed corpus: where the sweeps of the source list start (see rotation),
// gentd_churn's rotation order, which sources the oracles sample.
type inputs struct {
	seed  int64
	scale scale
}

// options are one run's knobs.
type options struct {
	inputs
	seconds float64 // timed-phase budget; whole passes are fitted into it
	passes  int     // > 0 fixes the pass count instead
	setups  int     // repeated set-ups; setup_s is their median
	check   bool
	trace   bool
	workdir string // temporary inputs and trace files live under it
}

// minPasses is the fewest timed passes an untraced run makes whatever the
// budget. Passes are fitted by the wall clock, so a spell in which the host
// grants under two thirds of the CPU would otherwise leave wide_candidates one
// pass: 26 samples of 26 distinct costs. (Three would be better and cannot be
// afforded: in such a spell three passes of tptr_bigsrc take 30 s, and the
// driver's 92 runs have 3 420 s between them.)
const minPasses = 2

// timedPasses runs passes until the budget is spent and at least atLeast are
// done (or exactly opt.passes), with a collection before each so a pass never
// pays for its predecessor's garbage. Only the operations are inside a pass.
func timedPasses(ctx context.Context, opt options, atLeast int, pass func() error) (int, error) {
	start := time.Now()
	var last time.Duration
	n := 0
	for {
		if opt.passes > 0 && n >= opt.passes {
			break
		}
		// Whole passes only; stop when the next one would overshoot the
		// budget by more than it undershoots now.
		if opt.passes <= 0 && n >= atLeast && (time.Since(start)+last/2).Seconds() >= opt.seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			return n, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := pass(); err != nil {
			return n, err
		}
		last = time.Since(t0)
		n++
	}
	return n, nil
}

// recordedPass is one untraced pass with the recorder's section bracketing.
func recordedPass(ctx context.Context, w workload, rec *recorder) error {
	rec.beginPass()
	err := w.pass(ctx, rec)
	rec.commitPass()
	return err
}

// runWorkload runs one workload end to end and reports its metrics:
// untraced → the end-to-end set, traced → the per-layer set.
func runWorkload(ctx context.Context, w workload, opt options) (*report, error) {
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("workdir: %w", err)
	}
	dir, err := os.MkdirTemp(opt.workdir, w.name()+"-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(dir)

	if err := w.generate(opt.inputs, dir); err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name(), err)
	}
	defer w.tearDown()

	// Set-up, repeated: one set-up carries tens of milliseconds of page-cache
	// and scheduler noise on top of the real work; the median of several is
	// what a later PR's set-up cost is compared against.
	setups := make([]float64, 0, opt.setups)
	for i := 0; i < opt.setups; i++ {
		if i > 0 {
			w.tearDown()
		}
		runtime.GC()
		before, t0 := readHostCPU(), time.Now()
		if err := w.setUp(ctx); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds()*grantedShare(before, readHostCPU()))
	}

	rep := &report{Workload: w.name(), Seed: opt.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Traced: opt.trace}
	rec := newRecorder()

	// Warm-up: lazy substrate builds, page cache, allocator growth. Its
	// outputs are the reference the timed passes must reproduce.
	rec.warm = true
	if err := recordedPass(ctx, w, rec); err != nil {
		return nil, fmt.Errorf("%s: warm-up pass: %w", w.name(), err)
	}
	rec.warm = false
	rec.refs = len(rec.order)

	if opt.trace {
		if err := runTraced(ctx, w, opt, rec, rep); err != nil {
			return nil, err
		}
	} else {
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		passes, err := timedPasses(ctx, opt, minPasses, func() error { return recordedPass(ctx, w, rec) })
		if err != nil {
			return nil, fmt.Errorf("%s: timed pass: %w", w.name(), err)
		}
		runtime.ReadMemStats(&m1)
		rep.Passes = passes
		// What stays live with the session still referenced.
		runtime.GC()
		runtime.ReadMemStats(&m2)
		runtime.KeepAlive(w)

		eis, recall, precision := rec.qualityMeans()
		op, aux := rec.lat[opPrimary], rec.lat[opAux]
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("op_p50_ms", percentile(op, 0.5), "ms", len(op))
		rep.add("op_p90_ms", percentile(op, 0.9), "ms", len(op))
		rep.add("ops_per_s", opsPerSecond(rec.perPass, rec.walls), "1/s", len(rec.walls))
		rep.add("aux_p50_ms", percentile(aux, 0.5), "ms", len(aux))
		rep.add("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(max(rec.timed, 1)), "MB", rec.timed)
		rep.add("live_heap_mb", float64(m2.HeapAlloc)/(1<<20), "MB", 0)
		rep.add("eis_mean", eis, "score", rec.refs)
		rep.add("recall_mean", recall, "score", rec.refs)
		rep.add("precision_mean", precision, "score", rec.refs)
		// Outside the contract's set: the share of the CPU time it asked for
		// that the host granted the run (its worst pass, and the mean over
		// passes), and the primary median on the wall clock, so a reader can
		// see how much of a timing above is the host's doing.
		rep.add("host_granted_min", percentile(rec.granted, 0), "ratio", len(rec.granted))
		rep.add("host_granted_mean", mean(rec.granted), "ratio", len(rec.granted))
		rep.add("wall_op_p50_ms", percentile(rec.raw[opPrimary], 0.5), "ms", len(op))
		if apply := rec.lat[opApply]; len(apply) > 0 {
			// Only one workload writes; printed so the write path is visible
			// beside the reads it interleaves with.
			rep.add("apply_p50_ms", percentile(apply, 0.5), "ms", len(apply))
		}
	}

	if opt.check {
		n, fails := w.check(ctx)
		rec.attempted += n
		for _, f := range fails {
			rec.fail("check: %s", f)
		}
	}
	rep.Attempted, rep.Failed, rep.Failures = rec.attempted, rec.failed, rec.failures
	rep.Digest = fmt.Sprintf("%016x", outputsDigest(rec))
	return rep, nil
}
