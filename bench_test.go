package gent

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VI), plus component micro-benchmarks. Sizes are scaled
// down so `go test -bench=. -benchmem` completes in minutes; the
// cmd/experiments tool exposes flags to run at larger scales.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gent/internal/benchmark"
	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/experiments"
	"gent/internal/index"
	lakePkg "gent/internal/lake"
	"gent/internal/matrix"
	"gent/internal/table"
	"gent/internal/tpch"
)

var (
	setOnce  sync.Once
	benchSet *experiments.BenchmarkSet

	wideOnce sync.Once
	wideSet  *benchmark.TPTR

	semOnce sync.Once
	semSet  *benchmark.TPTR
)

// semanticCorpus builds the `semantic` preset once per bench run: TP-TR plus
// a value-translated twin of every original — tables only the semantic
// channel can discover (zero exact overlap with any source).
func semanticCorpus(b *testing.B) *benchmark.TPTR {
	b.Helper()
	semOnce.Do(func() {
		s, err := benchmark.BuildSemanticPreset(11)
		if err != nil {
			panic(err)
		}
		semSet = s
	})
	return semSet
}

// wideCorpus builds the candidate-heavy `wide` preset once per bench run:
// TP-TR plus WidePresetSlices noisy slices of every original, so traversal
// faces dozens of overlapping candidates per source — the corpus the
// bound-and-prune engine is measured on.
func wideCorpus(b *testing.B) *benchmark.TPTR {
	b.Helper()
	wideOnce.Do(func() {
		w, err := benchmark.BuildWidePreset(0, 11)
		if err != nil {
			panic(err)
		}
		wideSet = w
	})
	return wideSet
}

// discover runs Table Discovery over l's current snapshot; nil members of
// ix are built fresh for the call.
func discover(b *testing.B, l *lakePkg.Lake, ix *index.IndexSet, src *table.Table, opts discovery.Options) []*discovery.Candidate {
	b.Helper()
	cands, err := discovery.DiscoverWithSnapContext(context.Background(), l.Snapshot(), ix, src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return cands
}

func benchmarkSet(b *testing.B) *experiments.BenchmarkSet {
	b.Helper()
	setOnce.Do(func() {
		o := experiments.DefaultSetOptions()
		o.SmallBase = 16
		o.MedBase = 40
		o.LargeBase = 80
		o.Distractors = 60
		o.T2DTables = 40
		o.WDCTables = 120
		o.MaxSourceRows = 80
		set, err := experiments.BuildSet(o)
		if err != nil {
			panic(err)
		}
		benchSet = set
	})
	return benchSet
}

// BenchmarkTable1Stats regenerates Table I (benchmark statistics).
func BenchmarkTable1Stats(b *testing.B) {
	set := benchmarkSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(set)
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2Effectiveness regenerates Table II (larger TP-TR
// benchmarks).
func BenchmarkTable2Effectiveness(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2Context(context.Background(), set, opts)
		if len(res) != 3 {
			b.Fatal("wrong benchmark count")
		}
	}
}

// BenchmarkTable3Small regenerates Table III (all baselines on TP-TR Small).
func BenchmarkTable3Small(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table3Context(context.Background(), set, opts)
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable4WDC regenerates Table IV (T2D sources in the WDC sample).
func BenchmarkTable4WDC(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table4Context(context.Background(), set.WDC, opts)
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure6QueryClasses regenerates Figure 6 (recall/precision by
// query class).
func BenchmarkFigure6QueryClasses(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	methods := []experiments.Method{experiments.MethodALITEPS, experiments.MethodGenT}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure6(context.Background(), set, methods, opts)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure7NoiseSweep regenerates Figure 7 (precision vs injected
// noise), with two sweep points per line to bound bench time.
func BenchmarkFigure7NoiseSweep(b *testing.B) {
	o := experiments.DefaultSetOptions()
	o.MedBase = 20
	o.MaxSourceRows = 40
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure7(context.Background(), o, []int{10, 90}, opts)
		if err != nil || len(points) != 4 {
			b.Fatal("sweep failed")
		}
	}
}

// BenchmarkFigure8Scalability regenerates Figure 8 (runtimes and output-size
// ratios).
func BenchmarkFigure8Scalability(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure8(context.Background(), set, opts)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure9PerSource regenerates Figure 9 (per-source Gen-T vs
// ALITE-PS).
func BenchmarkFigure9PerSource(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure9(context.Background(), set, opts)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkT2DSelfReclamation regenerates the Section VI-D study.
func BenchmarkT2DSelfReclamation(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.T2DSelfReclamation(context.Background(), set.T2D, opts)
		if res.SourcesTried == 0 {
			b.Fatal("nothing tried")
		}
	}
}

// BenchmarkAblationMatrixEncoding compares three- vs two-valued matrices.
func BenchmarkAblationMatrixEncoding(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationMatrixEncoding(context.Background(), set.Small, opts)
	}
}

// BenchmarkAblationDiversify compares diversified vs raw candidate ranking.
func BenchmarkAblationDiversify(b *testing.B) {
	set := benchmarkSet(b)
	opts := experiments.DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationDiversify(context.Background(), set.Small, opts)
	}
}

// --- component micro-benchmarks ---

// BenchmarkGenTSingleSource times one end-to-end reclamation.
func BenchmarkGenTSingleSource(b *testing.B) {
	set := benchmarkSet(b)
	src := set.Small.Sources[0]
	cfg := core.DefaultConfig()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReclaimContext(ctx, set.Small.Lake, src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReclaimPerQuery is the per-query baseline: every source of TP-TR
// Small through one-shot core.ReclaimContext, which rebuilds the discovery
// indexes for each query.
func BenchmarkReclaimPerQuery(b *testing.B) {
	set := benchmarkSet(b)
	cfg := core.DefaultConfig()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range set.Small.Sources {
			if _, err := core.ReclaimContext(ctx, set.Small.Lake, src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReclaimAll runs the same sources through one Reclaimer session's
// batched API: the indexes are built once per session and shared by every
// query, so the amortized per-query time must come in below
// BenchmarkReclaimPerQuery.
func BenchmarkReclaimAll(b *testing.B) {
	set := benchmarkSet(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := core.NewReclaimer(set.Small.Lake, cfg).ReclaimAllContext(context.Background(), set.Small.Sources, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, item := range items {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
		}
	}
}

// BenchmarkReclaimAllSequential isolates index reuse from batch parallelism:
// the shared-index session with a single worker.
func BenchmarkReclaimAllSequential(b *testing.B) {
	set := benchmarkSet(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := core.NewReclaimer(set.Small.Lake, cfg).ReclaimAllContext(context.Background(), set.Small.Sources, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, item := range items {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
		}
	}
}

// BenchmarkSetSimilarity times candidate retrieval alone.
func BenchmarkSetSimilarity(b *testing.B) {
	set := benchmarkSet(b)
	src := set.Small.Sources[0]
	ix := index.BuildInverted(set.Small.Lake.Snapshot())
	opts := discovery.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.SetSimilarity(set.Small.Lake, ix, src, opts)
	}
}

// BenchmarkMatrixTraversal times originating-table selection alone.
func BenchmarkMatrixTraversal(b *testing.B) {
	set := benchmarkSet(b)
	src := set.Small.Sources[0]
	cands := discover(b, set.Small.Lake, &index.IndexSet{}, src, discovery.DefaultOptions())
	tables := make([]*table.Table, len(cands))
	for i, c := range cands {
		tables[i] = c.Table
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.TraverseContext(ctx, src, tables, matrix.ThreeValued, matrix.TraverseOptions{})
	}
}

// BenchmarkTraverse compares the traversal engine against the retained
// materialize-and-rescan baseline (TraverseReference) on the bench corpora's
// discovery candidate sets. "interned" is the engine as the pipeline runs it
// — bound-and-prune rounds, candidate alignment through the Source's
// table.KeyIndex (the name keeps the historical trend line);
// "incremental-serial" pins the delta scorer's win with round parallelism
// turned off; "reference" is the pre-engine implementation. The picks are
// identical across all three — see the equivalence tests and
// FuzzTraverseParity in internal/matrix — so only time and allocations
// differ. The `wide` corpus is the candidate-heavy preset where pruning
// dominates; small/med keep the historical trend lines.
func BenchmarkTraverse(b *testing.B) {
	set := benchmarkSet(b)
	ctx := context.Background()
	run := func(name string, src *table.Table, tables []*table.Table) {
		b.Run(name+"/interned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.TraverseContext(ctx, src, tables, matrix.ThreeValued, matrix.TraverseOptions{})
			}
		})
		b.Run(name+"/incremental-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.TraverseContext(ctx, src, tables, matrix.ThreeValued, matrix.TraverseOptions{Workers: 1})
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.TraverseReference(src, tables, matrix.ThreeValued)
			}
		})
	}
	for _, corpus := range []struct {
		name string
		b    *benchmark.TPTR
	}{{"small", set.Small}, {"med", set.Med}} {
		src := corpus.b.Sources[0]
		cands := discover(b, corpus.b.Lake, &index.IndexSet{}, src, discovery.DefaultOptions())
		tables := make([]*table.Table, len(cands))
		for i, c := range cands {
			tables[i] = c.Table
		}
		run(corpus.name, src, tables)
	}

	// The wide corpus: among its sources, benchmark the one whose traversal
	// prunes the most candidate-rounds (found with one untimed pruned run
	// each) — the deepest bound-and-prune workload the preset produces, and
	// a deterministic pick.
	wide := wideCorpus(b)
	wopts := discovery.DefaultOptions()
	wopts.MaxCandidates = 256
	var wsrc *table.Table
	var wtables []*table.Table
	bestPruned := -1
	for _, src := range wide.Sources {
		cands := discover(b, wide.Lake, &index.IndexSet{}, src, wopts)
		tables := make([]*table.Table, len(cands))
		for i, c := range cands {
			tables[i] = c.Table
		}
		var st matrix.TraverseStats
		matrix.TraverseContext(ctx, src, tables, matrix.ThreeValued, matrix.TraverseOptions{
			OnStats: func(s matrix.TraverseStats) { st = s },
		})
		if st.CandidatesPruned > bestPruned {
			wsrc, wtables, bestPruned = src, tables, st.CandidatesPruned
		}
	}
	run("wide", wsrc, wtables)
}

// BenchmarkReclaimAllWide runs the wide preset's multi-table sources — its
// deepest traversals — through one Reclaimer session with the discovery cap
// raised, so the batched pipeline exercises the pruned traversal path end to
// end. (All 26 sources would spend most of the time integrating, not
// traversing; the multi subset keeps the bench smoke's budget.)
func BenchmarkReclaimAllWide(b *testing.B) {
	wide := wideCorpus(b)
	var sources []*table.Table
	for _, src := range wide.Sources {
		if strings.Contains(src.Name, "_multi_") {
			sources = append(sources, src)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Discovery.MaxCandidates = 160
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := core.NewReclaimer(wide.Lake, cfg).ReclaimAllContext(context.Background(), sources, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, item := range items {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
		}
	}
}

// BenchmarkDiscoverInterned times the full Table Discovery phase on the
// medium corpus over a prebuilt index. The sub-benchmark name is kept from
// when a string-keyed reference ran beside it, so its trend line stays
// comparable.
func BenchmarkDiscoverInterned(b *testing.B) {
	set := benchmarkSet(b)
	l := set.Med.Lake
	src := set.Med.Sources[0]
	opts := discovery.DefaultOptions()
	interned := &index.IndexSet{Inverted: index.BuildInverted(l.Snapshot())}
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discover(b, l, interned, src, opts)
		}
	})
}

// BenchmarkDiscoverSemantic times the discovery strategies on the `semantic`
// preset — TP-TR plus value-translated twins — and pins the channel's reason
// to exist: the hybrid run must recall translated twins the syntactic run
// (exact set overlap) cannot see at all. Sub-benchmarks share one prebuilt
// full index set, so the embedding substrate's build cost is not measured,
// only the per-query channel cost.
func BenchmarkDiscoverSemantic(b *testing.B) {
	sem := semanticCorpus(b)
	snap := sem.Lake.Snapshot()
	ix := index.BuildIndexSetFull(snap, 0, nil)
	src := sem.Sources[0]
	twins := sem.TranslatedSets[src.Name]
	opts := discovery.DefaultOptions()
	opts.MaxCandidates = 60
	hits := func(cands []*discovery.Candidate) int {
		found := make(map[string]bool, len(cands))
		for _, c := range cands {
			for _, s := range c.Sources {
				found[s] = true
			}
		}
		n := 0
		for _, tw := range twins {
			if found[tw] {
				n++
			}
		}
		return n
	}
	b.Run("syntactic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hits(discover(b, sem.Lake, ix, src, opts)) != 0 {
				b.Fatal("syntactic discovery found a translated twin")
			}
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		hopts := opts
		hopts.Strategy = discovery.StrategyHybrid
		for i := 0; i < b.N; i++ {
			if hits(discover(b, sem.Lake, ix, src, hopts)) == 0 {
				b.Fatal("hybrid discovery recalled no translated twin")
			}
		}
	})
}

// BenchmarkFullDisjunction times ALITE's core operation on the integrating
// set of one source — the cost Gen-T's pruning avoids.
func BenchmarkFullDisjunction(b *testing.B) {
	set := benchmarkSet(b)
	src := set.Small.Sources[0]
	inputs := set.Small.IntegratingTables(src.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.FullDisjunction(inputs, 40000)
	}
}

// BenchmarkInvertedIndexBuild times lake indexing.
func BenchmarkInvertedIndexBuild(b *testing.B) {
	set := benchmarkSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.BuildInverted(set.Med.Lake.Snapshot())
	}
}

// BenchmarkMinHashTopK times the Starmie-stand-in first stage on the
// distractor-heavy lake.
func BenchmarkMinHashTopK(b *testing.B) {
	set := benchmarkSet(b)
	ix := index.BuildMinHashLSH(set.SantosMed.Lake.Snapshot())
	src := set.SantosMed.Sources[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(src, 40)
	}
}

// BenchmarkEpochApply pits incremental substrate maintenance against a full
// rebuild after a k-table delta lands on the medium (distractor-heavy)
// corpus — the v3 epoch lifecycle's cost model. "incremental" derives both
// substrates (inverted postings + MinHash sketches) from the previous
// epoch's via WithDelta; "rebuild" reconstructs them from the new snapshot.
// Both start from a fully interned lake, so the comparison isolates index
// maintenance. Small deltas must win by a wide margin (≥5× for k ≤ 10);
// at delta sizes rivaling the corpus the rebuild naturally catches up.
func BenchmarkEpochApply(b *testing.B) {
	set := benchmarkSet(b)
	for _, k := range []int{1, 10, 100} {
		// A private lake so epoch mutations cannot leak into the shared set.
		l := lakePkg.New()
		base := set.SantosMed.Lake.Snapshot().Tables()
		muts := make([]lakePkg.Mutation, 0, len(base))
		for _, t := range base {
			muts = append(muts, lakePkg.Put(t))
		}
		if _, err := l.Apply(context.Background(), muts...); err != nil {
			b.Fatal(err)
		}
		snapBase := l.Snapshot()
		snapBase.EnsureInterned()
		baseInv := index.BuildInverted(snapBase)
		baseLSH := index.BuildMinHashLSH(snapBase)

		// The k-table delta: fresh tables sharing part of the value space.
		rng := rand.New(rand.NewSource(int64(k)))
		adds := make([]lakePkg.Mutation, k)
		for i := range adds {
			t := table.New(fmt.Sprintf("delta_%d_%d", k, i), "dk", "dv", "dw")
			for r := 0; r < 30; r++ {
				t.AddRow(
					table.S(fmt.Sprintf("key-%d", rng.Intn(400))),
					table.S(fmt.Sprintf("val-%d", rng.Intn(400))),
					table.N(float64(rng.Intn(100))),
				)
			}
			adds[i] = lakePkg.Put(t)
		}
		if _, err := l.Apply(context.Background(), adds...); err != nil {
			b.Fatal(err)
		}
		snapNew := l.Snapshot()
		snapNew.EnsureInterned()
		addedTables, _, ok := lakePkg.Diff(snapBase, snapNew)
		if !ok || len(addedTables) != k {
			b.Fatalf("delta diff: ok=%v n=%d", ok, len(addedTables))
		}
		forms := make([]*table.Interned, k)
		for i, t := range addedTables {
			forms[i] = snapNew.Interned(t.Name)
		}

		b.Run(fmt.Sprintf("delta=%d/incremental", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseInv.WithDelta(forms, nil)
				baseLSH.WithDelta(forms, nil)
			}
		})
		b.Run(fmt.Sprintf("delta=%d/rebuild", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				index.BuildInverted(snapNew)
				index.BuildMinHashLSH(snapNew)
			}
		})
	}
}

// BenchmarkTPCHGenerate times the data generator substrate.
func BenchmarkTPCHGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tpch.Generate(tpch.Scale{Base: 100, Seed: 1})
	}
}

// BenchmarkVariantConstruction times benchmark perturbation.
func BenchmarkVariantConstruction(b *testing.B) {
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base = 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.BuildTPTR("bench", o); err != nil {
			b.Fatal(err)
		}
	}
}
