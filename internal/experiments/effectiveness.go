package experiments

import (
	"context"
	"sync"
	"time"

	"gent/internal/benchmark"
	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/metrics"
)

// MethodScores aggregates one method's results over a benchmark's sources —
// one row of Tables II/III/IV.
type MethodScores struct {
	Method  Method
	Avg     metrics.Report
	Perfect int
	// AvgRuntime and AvgSizeRatio feed Figure 8.
	AvgRuntime   time.Duration
	AvgSizeRatio float64
	Timeouts     int
	Sources      int
}

// PerSource records one method's score on one source — the grain Figure 9
// plots.
type PerSource struct {
	Source  string
	Method  Method
	Report  metrics.Report
	Runtime time.Duration
}

// EffectivenessResult is one benchmark's full method comparison.
type EffectivenessResult struct {
	Benchmark string
	Rows      []MethodScores
	Detail    []PerSource
}

// RunEffectivenessContext evaluates the given methods on every source of a
// TP-TR benchmark, sharing one Set Similarity candidate set per source and
// one Reclaimer session — hence one pair of discovery indexes — across the
// whole corpus. With opts.Parallel > 1, sources run concurrently; results
// stay in source order either way. The whole suite can be deadlined
// (cmd/experiments -timeout): Gen-T runs abort at their phase boundaries
// once ctx expires and score as failures; every source still gets a row, so
// the tables keep their shape.
func RunEffectivenessContext(ctx context.Context, name string, b *benchmark.TPTR, methods []Method, opts RunOptions) EffectivenessResult {
	res := EffectivenessResult{Benchmark: name}
	session := sessionFor(b.Lake)

	outs := make([]map[Method]Outcome, len(b.Sources))
	runSource := func(i int) {
		src := b.Sources[i]
		cands := sessionCandidates(ctx, session, src, opts.Discovery)
		in := Input{
			Src:        src,
			Lake:       b.Lake,
			Candidates: cands,
			IntSet:     b.IntegratingTables(src.Name),
			Session:    session,
		}
		byMethod := make(map[Method]Outcome, len(methods))
		for _, m := range methods {
			byMethod[m] = RunContext(ctx, m, in, opts)
		}
		outs[i] = byMethod
	}

	if workers := opts.Parallel; workers > 1 {
		// Source-level fan-out already saturates the CPU: unless the caller
		// pinned a traversal pool, split the cores between the two levels so
		// concurrent sources do not each spin a GOMAXPROCS traversal engine.
		if opts.TraverseWorkers <= 0 {
			eff := workers
			if eff > len(b.Sources) {
				eff = len(b.Sources)
			}
			if eff < 1 {
				eff = 1
			}
			opts.TraverseWorkers = core.SplitTraverseWorkers(eff)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range b.Sources {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				runSource(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range b.Sources {
			runSource(i)
		}
	}

	perMethod := make(map[Method][]Outcome)
	for i, src := range b.Sources {
		for _, m := range methods {
			o := outs[i][m]
			perMethod[m] = append(perMethod[m], o)
			res.Detail = append(res.Detail, PerSource{
				Source: src.Name, Method: m, Report: o.Report, Runtime: o.Runtime,
			})
		}
	}
	for _, m := range methods {
		res.Rows = append(res.Rows, aggregateOutcomes(m, perMethod[m]))
	}
	return res
}

// aggregateOutcomes folds one method's outcomes into a table row.
func aggregateOutcomes(m Method, outs []Outcome) MethodScores {
	row := MethodScores{Method: m, Sources: len(outs)}
	reports := make([]metrics.Report, 0, len(outs))
	var totalRT time.Duration
	for _, o := range outs {
		reports = append(reports, o.Report)
		totalRT += o.Runtime
		if o.Report.PerfectReclamation {
			row.Perfect++
		}
		if o.TimedOut {
			row.Timeouts++
		}
	}
	row.Avg = metrics.Average(reports)
	if len(outs) > 0 {
		row.AvgRuntime = totalRT / time.Duration(len(outs))
	}
	row.AvgSizeRatio = row.Avg.SizeRatio
	return row
}

// BenchmarkSet bundles the benchmarks the paper evaluates on, at a chosen
// scale.
type BenchmarkSet struct {
	Small     *benchmark.TPTR
	Med       *benchmark.TPTR
	Large     *benchmark.TPTR
	SantosMed *benchmark.TPTR // Med embedded in a distractor lake
	T2D       *benchmark.T2D
	// WDC is the T2D corpus embedded among many more distractor web tables.
	WDC *benchmark.T2D
}

// SetOptions size the benchmark set. The defaults are scaled down so the
// full suite runs in test time; cmd/experiments exposes flags to raise them
// toward the paper's sizes.
type SetOptions struct {
	SmallBase, MedBase, LargeBase int
	Distractors                   int
	T2DTables, WDCTables          int
	MaxSourceRows                 int
	NullRate, ErrRate             float64
	Seed                          int64
}

// DefaultSetOptions are the test-time sizes.
func DefaultSetOptions() SetOptions {
	return SetOptions{
		SmallBase: 24, MedBase: 80, LargeBase: 200,
		Distractors: 120,
		T2DTables:   80, WDCTables: 300,
		MaxSourceRows: 120,
		NullRate:      0.5, ErrRate: 0.5,
		Seed: 17,
	}
}

// BuildSet constructs all benchmarks.
func BuildSet(o SetOptions) (*BenchmarkSet, error) {
	mk := func(name string, base int) (*benchmark.TPTR, error) {
		opts := benchmark.DefaultTPTROptions()
		opts.Scale.Base = base
		opts.Scale.Seed = o.Seed
		opts.Seed = o.Seed
		opts.NullRate = o.NullRate
		opts.ErrRate = o.ErrRate
		opts.MaxSourceRows = o.MaxSourceRows
		return benchmark.BuildTPTR(name, opts)
	}
	var set BenchmarkSet
	var err error
	if set.Small, err = mk("TP-TR Small", o.SmallBase); err != nil {
		return nil, err
	}
	if set.Med, err = mk("TP-TR Med", o.MedBase); err != nil {
		return nil, err
	}
	if set.Large, err = mk("TP-TR Large", o.LargeBase); err != nil {
		return nil, err
	}
	if set.SantosMed, err = mk("SANTOS Large+TP-TR Med", o.MedBase); err != nil {
		return nil, err
	}
	benchmark.AddDistractors(set.SantosMed.Lake, o.Distractors, 20, o.Seed+1)
	set.T2D = benchmark.BuildT2D(o.T2DTables, 6, 4, o.Seed+2)
	set.WDC = benchmark.BuildT2D(o.T2DTables, 6, 4, o.Seed+2)
	benchmark.AddDistractors(set.WDC.Lake, o.WDCTables-o.T2DTables, 8, o.Seed+3)
	return &set, nil
}

// Table1Row is one row of Table I (benchmark statistics).
type Table1Row struct {
	Benchmark string
	Stats     lake.Stats
}

// Table1 computes the corpus statistics of every benchmark lake.
func Table1(set *BenchmarkSet) []Table1Row {
	rows := []Table1Row{
		{"TP-TR Small", set.Small.Lake.ComputeStats()},
		{"TP-TR Med", set.Med.Lake.ComputeStats()},
		{"TP-TR Large", set.Large.Lake.ComputeStats()},
		{"SANTOS Large+TP-TR Med", set.SantosMed.Lake.ComputeStats()},
		{"T2D Gold", set.T2D.Lake.ComputeStats()},
		{"WDC Sample+T2D Gold", set.WDC.Lake.ComputeStats()},
	}
	return rows
}

// Table2Context reproduces Table II: effectiveness of the ALITE variants and
// Gen-T on the larger TP-TR benchmarks. On the Large benchmark plain ALITE is
// omitted, as in the paper (it times out).
func Table2Context(ctx context.Context, set *BenchmarkSet, opts RunOptions) []EffectivenessResult {
	full := []Method{MethodALITE, MethodALITEIntSet, MethodALITEPS, MethodALITEPSIntSet, MethodGenT}
	noALITE := []Method{MethodALITEPS, MethodALITEPSIntSet, MethodGenT}
	santosOpts := opts
	santosOpts.Discovery.FirstStageTopK = 60
	return []EffectivenessResult{
		RunEffectivenessContext(ctx, "TP-TR Med", set.Med, full, opts),
		RunEffectivenessContext(ctx, "SANTOS Large+TP-TR Med", set.SantosMed, full, santosOpts),
		RunEffectivenessContext(ctx, "TP-TR Large", set.Large, noALITE, opts),
	}
}

// Table3Context reproduces Table III: all baselines on TP-TR Small.
func Table3Context(ctx context.Context, set *BenchmarkSet, opts RunOptions) EffectivenessResult {
	methods := []Method{
		MethodALITE, MethodALITEIntSet,
		MethodALITEPS, MethodALITEPSIntSet,
		MethodAutoPipeline, MethodAutoPipelineIntSet,
		MethodVerIntSet,
		MethodGenT,
	}
	return RunEffectivenessContext(ctx, "TP-TR Small", set.Small, methods, opts)
}

// AppendixLLM reproduces Appendix F: the naive LLM stand-in on TP-TR Small
// with the integrating set.
func AppendixLLM(ctx context.Context, set *BenchmarkSet, opts RunOptions) EffectivenessResult {
	return RunEffectivenessContext(ctx, "TP-TR Small", set.Small, []Method{MethodNaiveLLM, MethodGenT}, opts)
}
