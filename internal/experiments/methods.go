// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI): the effectiveness tables (II, III, IV), the
// query-class breakdown (Figure 6), the noise ablation (Figure 7), the
// scalability study (Figure 8), the per-source breakdown (Figure 9), the
// T2D generalizability study, and the appendix LLM baseline — all over the
// synthetic benchmark suites of internal/benchmark.
package experiments

import (
	"context"
	"errors"
	"sync"
	"time"

	"gent/internal/baselines/alite"
	"gent/internal/baselines/autopipeline"
	"gent/internal/baselines/naive"
	"gent/internal/baselines/ver"
	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/lake"
	"gent/internal/metrics"
	"gent/internal/table"
)

// Method identifies one system under evaluation.
type Method string

// The evaluated methods, named as the paper's tables name them.
const (
	MethodGenT               Method = "Gen-T"
	MethodALITE              Method = "ALITE"
	MethodALITEIntSet        Method = "ALITE w/ int. set"
	MethodALITEPS            Method = "ALITE-PS"
	MethodALITEPSIntSet      Method = "ALITE-PS w/ int. set"
	MethodAutoPipeline       Method = "Auto-Pipeline*"
	MethodAutoPipelineIntSet Method = "Auto-Pipeline* w/ int. set"
	MethodVerIntSet          Method = "Ver w/ int. set"
	MethodNaiveLLM           Method = "ChatGPT* (naive stand-in)"
)

// RunOptions bound the methods, standing in for the paper's wall-clock
// timeouts.
type RunOptions struct {
	// Discovery configures Gen-T's (and the shared candidate retrieval's)
	// table discovery.
	Discovery discovery.Options
	// FDMaxRows bounds full disjunction's intermediate size for the ALITE
	// variants.
	FDMaxRows int
	// AP bounds the Auto-Pipeline* search.
	AP autopipeline.Options
	// Parallel runs that many sources concurrently in
	// RunEffectivenessContext (<= 1 is sequential). All pipeline stages are
	// read-only over the lake, so source-level parallelism is safe.
	// Per-source runtimes stay meaningful; wall-clock totals do not, so keep
	// it at 1 when measuring Figure 8.
	Parallel int
	// TraverseWorkers bounds Gen-T's Matrix Traversal engine per source
	// (core.Config.TraverseWorkers); <= 0 uses GOMAXPROCS. Set to 1 when
	// Parallel already saturates the CPU.
	TraverseWorkers int
}

// config is the paper's Gen-T configuration plus the experiment's knobs.
func (o RunOptions) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Discovery = o.Discovery
	cfg.TraverseWorkers = o.TraverseWorkers
	return cfg
}

// DefaultRunOptions sizes the budgets for the scaled-down benchmarks. The
// full-disjunction row budget is deliberately tight: ALITE's closure is
// worst-case exponential and the paper likewise runs it under wall-clock
// timeouts.
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Discovery: discovery.DefaultOptions(),
		FDMaxRows: 4000,
		AP:        autopipeline.DefaultOptions(),
	}
}

// Input is one reclamation task: a source, its lake, the shared candidate
// tables from Set Similarity, and (when available) the known integrating
// set.
type Input struct {
	Src        *table.Table
	Lake       *lake.Lake
	Candidates []*table.Table
	IntSet     []*table.Table
	// Session, when set, is the corpus's shared Reclaimer; Gen-T runs reuse
	// its indexes instead of rebuilding them per query.
	Session *core.Reclaimer
}

// sessions caches one Reclaimer per corpus lake, so every experiment and
// every query over a corpus shares one pair of discovery substrates — the
// paper's build-once-query-many deployment. Sessions survive for the life of
// the experiments process, which is the intended trade: the index memory buys
// back per-query indexing time.
var sessions sync.Map // *lake.Lake -> *core.Reclaimer

// sessionFor returns the corpus's shared session, creating it on first use.
func sessionFor(l *lake.Lake) *core.Reclaimer {
	if s, ok := sessions.Load(l); ok {
		return s.(*core.Reclaimer)
	}
	s, _ := sessions.LoadOrStore(l, core.NewReclaimer(l, core.DefaultConfig()))
	return s.(*core.Reclaimer)
}

// Outcome is one method's result on one input.
type Outcome struct {
	Reclaimed *table.Table
	Report    metrics.Report
	Runtime   time.Duration
	TimedOut  bool
	// Originating counts the tables the method integrated (where defined).
	Originating int
}

// sessionCandidates runs Table Discovery once so every method sees the same
// candidate set, as in the paper's setup. The corpus's shared session serves
// the retrieval, so the lake is indexed once across all sources and methods.
// A canceled retrieval yields an empty candidate set (the methods then score
// as failures, keeping the result shape).
func sessionCandidates(ctx context.Context, s *core.Reclaimer, src *table.Table, opts discovery.Options) []*table.Table {
	cands, err := s.CandidatesContext(ctx, src, opts)
	if err != nil {
		return nil
	}
	out := make([]*table.Table, len(cands))
	for i, c := range cands {
		out[i] = c.Table
	}
	return out
}

// RunContext executes one method on one input. Gen-T runs on the
// context-first session API and aborts at its phase boundaries when ctx is
// canceled or expires — the run then scores as a failure (all-null output),
// mirroring how the paper treats timed-out systems. The baselines are not
// preemptible.
func RunContext(ctx context.Context, m Method, in Input, opts RunOptions) Outcome {
	start := time.Now()
	var out *table.Table
	timedOut := false
	origN := 0

	switch m {
	case MethodGenT:
		session := in.Session
		if session == nil {
			session = sessionFor(in.Lake)
		}
		// The run is pinned to the paper's configuration (plus the
		// experiment's knobs) regardless of how the session was configured.
		res, err := session.WithConfig(opts.config()).ReclaimContext(ctx, in.Src)
		if err != nil {
			out = table.New("failed").PadNullColumns(in.Src.Cols)
			timedOut = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		} else {
			out = res.Reclaimed
			origN = len(res.Originating)
		}
	case MethodALITE:
		r := alite.Integrate(in.Src, in.Candidates, alite.Options{MaxRows: opts.FDMaxRows})
		out, timedOut = r.Table, r.TimedOut
		origN = len(in.Candidates)
	case MethodALITEIntSet:
		r := alite.Integrate(in.Src, in.IntSet, alite.Options{MaxRows: opts.FDMaxRows})
		out, timedOut = r.Table, r.TimedOut
		origN = len(in.IntSet)
	case MethodALITEPS:
		r := alite.IntegratePS(in.Src, in.Candidates, alite.Options{MaxRows: opts.FDMaxRows})
		out, timedOut = r.Table, r.TimedOut
		origN = len(in.Candidates)
	case MethodALITEPSIntSet:
		r := alite.IntegratePS(in.Src, in.IntSet, alite.Options{MaxRows: opts.FDMaxRows})
		out, timedOut = r.Table, r.TimedOut
		origN = len(in.IntSet)
	case MethodAutoPipeline:
		r := autopipeline.Synthesize(in.Src, in.Candidates, opts.AP)
		out, timedOut = r.Table, r.TimedOut
	case MethodAutoPipelineIntSet:
		r := autopipeline.Synthesize(in.Src, in.IntSet, opts.AP)
		out, timedOut = r.Table, r.TimedOut
	case MethodVerIntSet:
		out = ver.Discover(in.Src, in.IntSet, ver.DefaultOptions())
	case MethodNaiveLLM:
		out = naive.Integrate(in.Src, in.IntSet, naive.Options{})
	default:
		out = table.New("unknown").PadNullColumns(in.Src.Cols)
	}

	rt := time.Since(start)
	return Outcome{
		Reclaimed:   out,
		Report:      metrics.Evaluate(in.Src, out),
		Runtime:     rt,
		TimedOut:    timedOut,
		Originating: origN,
	}
}
