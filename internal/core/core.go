// Package core wires Gen-T's phases into the end-to-end pipeline of Figure
// 2: Table Discovery (Set Similarity + Expand), Matrix Traversal to pin down
// the originating tables, and Table Integration to produce the reclaimed
// Source Table, together with timing and effectiveness reporting.
//
// The pipeline is context-first: every phase checks cancellation at its
// boundary plus at internal preemption points (discovery's per-column
// probes, each traversal round, integration's per-table fold), and a
// canceled run fails with a *Error tagging the phase it was in, wrapping
// ctx.Err(), and preserving the timings of the phases that completed.
package core

import (
	"context"
	"fmt"
	"time"

	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/integrate"
	"gent/internal/lake"
	"gent/internal/matrix"
	"gent/internal/metrics"
	"gent/internal/table"
)

// Config tunes a reclamation run.
type Config struct {
	// Discovery configures Set Similarity, diversification and Expand.
	Discovery discovery.Options
	// Encoding selects three-valued (Gen-T) or two-valued (ablation)
	// matrices.
	Encoding matrix.Encoding
	// SkipTraversal integrates every candidate without Matrix Traversal —
	// the "no pruning" ablation.
	SkipTraversal bool
	// TraverseWorkers bounds the Matrix Traversal engine's scoring pool;
	// <= 0 uses GOMAXPROCS. Within a batch (ReclaimAllContext) that already
	// saturates the CPU with source-level parallelism, 1 avoids
	// oversubscription.
	TraverseWorkers int
	// Observer, when non-nil, receives structured phase events from the run.
	Observer ProgressObserver
	// RequireCandidates makes an empty discovery result fail with
	// ErrNoCandidates instead of integrating nothing.
	RequireCandidates bool
	// IndexShards is the fan-out width of large probes of the inverted
	// substrate a Reclaimer session builds: a probe of many query values is
	// split over this many goroutines; ≤ 1 probes inline. Query results are
	// bit-identical for every value, and builds and persistence do not
	// depend on it (the postings are one slab indexed by value ID). It is a
	// session-level knob: the substrate is built once per lake epoch from the
	// configuration given to NewReclaimer, so a WithConfig handle cannot
	// change it mid-epoch.
	IndexShards int
}

// keyMaxArity bounds key mining when the Source has no declared key.
const keyMaxArity = 3

// DefaultConfig mirrors the paper's Gen-T configuration.
func DefaultConfig() Config {
	return Config{
		Discovery:   discovery.DefaultOptions(),
		Encoding:    matrix.ThreeValued,
		IndexShards: index.DefaultShards,
	}
}

// Timing breaks a run down by phase.
type Timing struct {
	Discover time.Duration
	// Traverse includes building the Source's key index, which integration
	// and evaluation then share.
	Traverse  time.Duration
	Integrate time.Duration
	// Evaluate is the effectiveness-evaluation time (metrics.Evaluate of the
	// reclaimed table against the Source).
	Evaluate time.Duration
}

// Total sums the phases.
func (t Timing) Total() time.Duration {
	return t.Discover + t.Traverse + t.Integrate + t.Evaluate
}

// Result is the output of Figure 2: the reclaimed table, the originating
// tables (with lake provenance), and the evaluation against the Source.
type Result struct {
	// Reclaimed has exactly the Source's schema.
	Reclaimed *table.Table
	// Key lists the Source key columns the run aligned on: the declared key,
	// or the one mined when the Source declared none. Explain and WriteJSON
	// fall back to it for a Source without a key.
	Key []int
	// Originating lists the candidates Matrix Traversal selected, in pick
	// order. Their tables' rows are shared with the lake and read-only: take
	// a Clone to write.
	Originating []*discovery.Candidate
	// CandidateCount is the size of the candidate set before traversal.
	CandidateCount int
	// Report evaluates Reclaimed against the Source.
	Report metrics.Report
	// Traversal counts the traversal engine's work: candidate-rounds
	// exact-scored vs pruned by the admissible bound, and greedy rounds. Zero
	// when traversal was skipped (Config.SkipTraversal) or had no candidates.
	Traversal matrix.TraverseStats
	Timing    Timing
	// Epoch is the lake epoch the run was pinned to — the catalog version
	// every phase read. A server keys result caches by it: two runs over the
	// same source at the same epoch saw the same lake.
	Epoch lake.Epoch
}

// ReclaimContext runs the full Gen-T pipeline for one Source Table over a
// lake under cfg: a one-query session,
// NewReclaimer(l, cfg).ReclaimContext(ctx, src), so its substrates are built
// for this call and dropped with it. Callers issuing many queries over one
// lake should keep the Reclaimer instead, so indexing happens once.
// Cancellation or deadline expiry aborts the run at the next phase boundary
// (or mid-phase preemption point) with a phase-tagged *Error wrapping
// ctx.Err().
func ReclaimContext(ctx context.Context, l *lake.Lake, src *table.Table, cfg Config) (*Result, error) {
	return NewReclaimer(l, cfg).ReclaimContext(ctx, src)
}

// ReclaimContext runs Figure 2 for one Source Table under the handle's
// configuration. Cancellation aborts at the next phase boundary (or mid-phase
// preemption point) with a phase-tagged *Error wrapping ctx.Err().
//
// The epoch state is resolved exactly once, before any phase: the whole
// query — discovery, traversal, integration — runs against that snapshot and
// its substrates, no matter what Apply does to the lake meanwhile.
// Traversal, integration and evaluation align on the Source's own key
// space and need no value dictionary: one table.KeyIndex, built once when
// traversal starts (after discovery has found candidates) and handed to all
// three, so no layer re-indexes the Source.
// Every observer event the run emits is stamped with the pinned snapshot's
// epoch.
func (r *Reclaimer) ReclaimContext(ctx context.Context, src *table.Table) (*Result, error) {
	st := r.acquire()
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := r.cfg
	obs := cfg.Observer
	epoch := st.snap.Epoch()
	res := &Result{Epoch: epoch}
	fail := func(phase Phase, err error) (*Result, error) {
		return nil, phaseError(phase, src.Name, res.Timing, err)
	}

	// A dead context fails before any work at all — source validation is
	// cheap, but key mining on a wide keyless source is combinatorial.
	if err := ctx.Err(); err != nil {
		return fail(PhaseSource, err)
	}
	if err := src.Validate(); err != nil {
		return fail(PhaseSource, fmt.Errorf("core: invalid source: %w", err))
	}
	if len(src.Key) == 0 {
		key := table.MineKey(src, keyMaxArity)
		if key == nil {
			return fail(PhaseSource, ErrNoKey)
		}
		src = src.Clone()
		src.Key = key
	}
	res.Key = append([]int(nil), src.Key...)

	// Table Discovery.
	if err := ctx.Err(); err != nil {
		return fail(PhaseDiscovery, err)
	}
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseDiscovery, Kind: EventPhaseStarted})
	start := time.Now()
	cands, err := r.rawCandidates(ctx, st, src, cfg.Discovery)
	res.Timing.Discover = time.Since(start)
	if err != nil {
		return fail(PhaseDiscovery, err)
	}
	res.CandidateCount = len(cands)
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseDiscovery, Kind: EventPhaseDone,
		Elapsed: res.Timing.Discover, Count: len(cands)})
	if cfg.RequireCandidates && len(cands) == 0 {
		return fail(PhaseDiscovery, ErrNoCandidates)
	}

	// Matrix Traversal.
	if err := ctx.Err(); err != nil {
		return fail(PhaseTraversal, err)
	}
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseTraversal, Kind: EventPhaseStarted})
	start = time.Now()
	// The Source's key index, built once for traversal, integration and
	// evaluation; its build counts in the traversal time.
	keys := table.NewKeyIndex(src)
	var picked []*discovery.Candidate
	if cfg.SkipTraversal {
		picked = cands
	} else {
		tables := make([]*table.Table, len(cands))
		for i, c := range cands {
			tables[i] = c.Table
		}
		topts := matrix.TraverseOptions{Workers: cfg.TraverseWorkers,
			OnStats: func(s matrix.TraverseStats) { res.Traversal = s }}
		if obs != nil {
			srcName := src.Name
			topts.OnRound = func(round, pick int, score float64) {
				emit(obs, ProgressEvent{Source: srcName, Epoch: epoch, Phase: PhaseTraversal,
					Kind: EventTraverseRound, Round: round, Pick: pick, Score: score})
			}
		}
		picks, err := matrix.TraverseKeyed(ctx, src, keys, tables, cfg.Encoding, topts)
		if err != nil {
			res.Timing.Traverse = time.Since(start)
			return fail(PhaseTraversal, err)
		}
		for _, idx := range picks {
			picked = append(picked, cands[idx])
		}
	}
	res.Timing.Traverse = time.Since(start)
	res.Originating = picked
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseTraversal, Kind: EventPhaseDone,
		Elapsed: res.Timing.Traverse, Count: len(picked),
		Scored: res.Traversal.CandidatesScored, Pruned: res.Traversal.CandidatesPruned})

	// Table Integration.
	if err := ctx.Err(); err != nil {
		return fail(PhaseIntegration, err)
	}
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseIntegration, Kind: EventPhaseStarted})
	start = time.Now()
	origTables := make([]*table.Table, len(picked))
	for i, c := range picked {
		origTables[i] = c.Table
	}
	reclaimed, err := integrate.NewKeyed(src, keys).ReclaimContext(ctx, origTables)
	res.Timing.Integrate = time.Since(start)
	if err != nil {
		return fail(PhaseIntegration, err)
	}
	res.Reclaimed = reclaimed
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseIntegration, Kind: EventPhaseDone,
		Elapsed: res.Timing.Integrate, Count: res.Reclaimed.NumRows()})

	// Evaluation. Deliberately not preemptible: it is bounded local scoring,
	// and a deadline firing here would otherwise discard a reclamation the
	// caller already paid the whole pipeline for.
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseEvaluation, Kind: EventPhaseStarted})
	start = time.Now()
	res.Report = metrics.EvaluateKeyed(src, keys, res.Reclaimed)
	res.Timing.Evaluate = time.Since(start)
	emit(obs, ProgressEvent{Source: src.Name, Epoch: epoch, Phase: PhaseEvaluation, Kind: EventPhaseDone,
		Elapsed: res.Timing.Evaluate, Score: res.Report.EIS})
	return res, nil
}
