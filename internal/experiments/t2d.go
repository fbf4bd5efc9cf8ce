package experiments

import (
	"context"

	"gent/internal/benchmark"
	"gent/internal/lake"
	"gent/internal/table"
)

// Table4Context reproduces Table IV: the T2D-Gold-style sources immersed in
// the WDC-style corpus, comparing ALITE, ALITE-PS, Auto-Pipeline* and Gen-T
// on the sources for which every method produces non-empty output. Each
// source table is removed from the lake while it is being reclaimed, so
// methods must reconstruct it from its vertical splits and duplicates.
// Under an expiring ctx (cmd/experiments -timeout), Gen-T runs and
// retrievals abort and score as failures.
func Table4Context(ctx context.Context, corpus *benchmark.T2D, opts RunOptions) EffectivenessResult {
	methods := []Method{MethodALITE, MethodALITEPS, MethodAutoPipeline, MethodGenT}
	res := EffectivenessResult{Benchmark: "WDC Sample+T2D Gold"}
	perMethod := make(map[Method][]Outcome)

	// Warm the shared session, for the substrates this run's options engage,
	// while the corpus is whole: each iteration's remove/restore lands as a
	// pair of lake epochs, and the session's substrates follow them with
	// small incremental deltas off this warm build.
	session := sessionFor(corpus.Lake).WithConfig(opts.config()).Warm()

	// The whole corpus is present before the first remove/restore pair, so
	// one pinned snapshot serves every iteration's source lookup.
	snap := corpus.Lake.Snapshot()
	for _, name := range corpus.Reclaimable {
		src := snap.Get(name).Clone()
		key := table.MineKey(src, 2)
		if key == nil {
			continue
		}
		src.Key = key
		corpus.Lake.Apply(ctx, lake.Drop(name))
		cands := sessionCandidates(ctx, session, src, opts.Discovery)
		in := Input{Src: src, Lake: corpus.Lake, Candidates: cands, IntSet: cands, Session: session}
		outcomes := make(map[Method]Outcome, len(methods))
		nonEmpty := true
		for _, m := range methods {
			o := RunContext(ctx, m, in, opts)
			outcomes[m] = o
			if len(o.Reclaimed.Rows) == 0 {
				nonEmpty = false
			}
		}
		restore(ctx, corpus, name, src)
		if !nonEmpty {
			continue // Table IV reports only commonly non-empty sources
		}
		for _, m := range methods {
			perMethod[m] = append(perMethod[m], outcomes[m])
			res.Detail = append(res.Detail, PerSource{
				Source: name, Method: m, Report: outcomes[m].Report, Runtime: outcomes[m].Runtime,
			})
		}
	}
	for _, m := range methods {
		res.Rows = append(res.Rows, aggregateOutcomes(m, perMethod[m]))
	}
	return res
}

// T2DSelfResult summarizes the Section VI-D generalizability study.
type T2DSelfResult struct {
	SourcesTried        int
	PerfectReclamations int
	DuplicatesFound     int
	// MultiTable counts perfect reclamations that integrated >= 2 tables.
	MultiTable int
}

// T2DSelfReclamation iterates every corpus table as a potential source (as
// Section VI-D does with the 515 T2D Gold tables), reclaiming each from the
// remaining corpus.
func T2DSelfReclamation(ctx context.Context, corpus *benchmark.T2D, opts RunOptions) T2DSelfResult {
	var out T2DSelfResult
	// One warm session (for this run's options) serves all |corpus|
	// leave-one-out queries; each remove/restore is an epoch pair the
	// substrates follow incrementally.
	session := sessionFor(corpus.Lake).WithConfig(opts.config()).Warm()
	// Pin the whole corpus once: every leave-one-out iteration reads its
	// source from this snapshot, no matter where the remove/restore churn is.
	snap := corpus.Lake.Snapshot()
	for _, name := range snap.Names() {
		src := snap.Get(name).Clone()
		key := table.MineKey(src, 2)
		if key == nil {
			continue
		}
		src.Key = key
		corpus.Lake.Apply(ctx, lake.Drop(name))
		out.SourcesTried++
		res, err := session.ReclaimContext(ctx, src)
		restore(ctx, corpus, name, src)
		if err != nil {
			continue
		}
		if res.Report.PerfectReclamation {
			out.PerfectReclamations++
			if len(res.Originating) >= 2 {
				out.MultiTable++
			} else if len(res.Originating) == 1 {
				out.DuplicatesFound++
			}
		}
	}
	return out
}

// restore puts a removed source table back into the corpus lake. It is
// cleanup, so it runs even after ctx is canceled: an expired run must not
// leave the corpus short of a table.
func restore(ctx context.Context, corpus *benchmark.T2D, name string, src *table.Table) {
	if corpus.Lake.Snapshot().Get(name) == nil {
		back := src.Clone()
		back.Name = name
		back.Key = nil
		if _, err := corpus.Lake.Apply(context.WithoutCancel(ctx), lake.Put(back)); err != nil {
			panic(err) // a clone of a former member always applies cleanly
		}
	}
}
