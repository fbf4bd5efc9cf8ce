package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/integrate"
	"gent/internal/lake"
	"gent/internal/matrix"
	"gent/internal/metrics"
	"gent/internal/table"
)

// layerCounts accumulates the counts and sums a traced run records at the
// layer boundaries, keyed by metric name.
type layerCounts map[string]float64

func (lc layerCounts) add(name string, v float64) { lc[name] += v }

// replayLayers runs one source through the pipeline's layers from outside —
// the calls core's pipeline makes, in its order, each through the layer's
// public function and under its own span — and returns the candidates
// discovery found.
func replayLayers(ctx context.Context, tr *tracer, lc layerCounts, l *lake.Lake, inv *index.Inverted,
	src *table.Table, cfg core.Config) ([]*discovery.Candidate, error) {
	if len(src.Key) == 0 {
		return nil, fmt.Errorf("%s: source has no declared key", src.Name)
	}
	end := tr.begin("discovery.setsim")
	sim := discovery.SetSimilarity(l, inv, src, cfg.Discovery)
	end()
	end = tr.begin("discovery.expand")
	cands := discovery.Expand(sim, src, cfg.Discovery)
	end()

	tables := make([]*table.Table, len(cands))
	for i, c := range cands {
		tables[i] = c.Table
	}
	// One query-scoped overlay for traversal and integration, as in the
	// pipeline: source values the lake never saw must not grow its dictionary.
	interner := table.NewOverlay(inv.Dict())
	var stats matrix.TraverseStats
	end = tr.begin("matrix.traverse")
	picks, err := matrix.TraverseContext(ctx, src, tables, cfg.Encoding, matrix.TraverseOptions{
		Workers: cfg.TraverseWorkers, Dict: interner,
		OnStats: func(s matrix.TraverseStats) { stats = s }})
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: traversal: %w", src.Name, err)
	}
	origs := make([]*table.Table, len(picks))
	for i, p := range picks {
		origs[i] = tables[p]
	}
	end = tr.begin("integrate.reclaim")
	reclaimed, err := integrate.NewWith(src, interner).ReclaimContext(ctx, origs)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: integration: %w", src.Name, err)
	}
	end = tr.begin("metrics.evaluate")
	metrics.Evaluate(src, reclaimed)
	end()

	lc.add("discovery.candidates", float64(len(cands)))
	lc.add("matrix.scored", float64(stats.CandidatesScored))
	lc.add("matrix.pruned", float64(stats.CandidatesPruned))
	lc.add("matrix.rounds", float64(stats.Rounds))
	lc.add("integrate.tables_in", float64(len(origs)))
	lc.add("integrate.rows_out", float64(reclaimed.NumRows()))
	lc.add("ops", 1)
	return cands, nil
}

// replayOp is one traced operation: the layer replay under an "op" root span,
// then — outside the op, so it does not count into the shares — the index
// probes the Set Similarity span contains (Inverted.SearchIDs per source
// column, which cannot be separated from outside). With a session, the
// replay's discovery is cross-checked against what the session finds (as
// costly as the discovery itself, so callers do it on their first pass only).
func replayOp(ctx context.Context, tr *tracer, lc layerCounts, l *lake.Lake, inv *index.Inverted,
	src *table.Table, cfg core.Config, session *core.Reclaimer) error {
	endOp := tr.beginOp("op")
	cands, err := replayLayers(ctx, tr, lc, l, inv, src, cfg)
	endOp()
	if err != nil {
		return err
	}

	endOp = tr.beginOp("index.probe")
	q := table.InternTable(table.NewOverlay(inv.Dict()), src)
	for ci := range src.Cols {
		if ids := q.ColumnIDs(ci); len(ids) > 0 {
			inv.SearchIDs(ids)
		}
	}
	endOp()

	if session == nil {
		return nil
	}
	want, err := session.CandidatesContext(ctx, src, cfg.Discovery)
	if err != nil {
		return fmt.Errorf("%s: session candidates: %w", src.Name, err)
	}
	if got, exp := candidateNames(cands), candidateNames(want); got != exp {
		return fmt.Errorf("%s: replayed discovery found %q, the session %q", src.Name, got, exp)
	}
	return nil
}

func candidateNames(cands []*discovery.Candidate) string {
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = strings.Join(c.Sources, "+")
	}
	return strings.Join(names, ",")
}

// checkSources runs the oracles on the sampled sources, outside any timed
// region: the session's picks must equal the paper-faithful
// matrix.TraverseReference over the same candidates, and the session's
// result must equal a one-shot core.ReclaimContext that shares nothing with
// the session (fresh substrates, no epoch state).
func checkSources(ctx context.Context, l *lake.Lake, session *core.Reclaimer, cfg core.Config,
	srcs []*table.Table) (int, []string) {
	var fails []string
	checks := 0
	for _, src := range srcs {
		checks += 2
		res, err := session.ReclaimContext(ctx, src)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: session: %v", src.Name, err))
			continue
		}
		cands, err := session.CandidatesContext(ctx, src, cfg.Discovery)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: candidates: %v", src.Name, err))
			continue
		}
		tables := make([]*table.Table, len(cands))
		for i, c := range cands {
			tables[i] = c.Table
		}
		ref := matrix.TraverseReference(src, tables, cfg.Encoding)
		var refNames []string
		for _, p := range ref {
			refNames = append(refNames, strings.Join(cands[p].Sources, "+"))
		}
		if got, want := candidateNames(res.Originating), strings.Join(refNames, ","); got != want {
			fails = append(fails, fmt.Sprintf("%s: session picked %q, TraverseReference %q", src.Name, got, want))
		}
		one, err := core.ReclaimContext(ctx, l, src, cfg)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: one-shot: %v", src.Name, err))
			continue
		}
		if a, b := table.Fingerprint(res.Reclaimed), table.Fingerprint(one.Reclaimed); a != b || res.Report.EIS != one.Report.EIS {
			fails = append(fails, fmt.Sprintf("%s: session result %016x differs from one-shot %016x", src.Name, a, b))
		}
	}
	return checks, fails
}

// outputsDigest folds every reference output into one number: two runs with
// the same seeds must print the same digest.
func outputsDigest(rec *recorder) uint64 {
	keys := append([]string(nil), rec.order[:rec.refs]...)
	sort.Strings(keys)
	h := fnv.New64a()
	var b [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(b[:], rec.first[k].digest)
		h.Write(b[:])
	}
	return h.Sum64()
}
