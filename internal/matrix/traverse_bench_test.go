package matrix

import (
	"context"
	"testing"

	"gent/internal/benchmark"
	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/table"
)

// BenchmarkTraverse times the traversal engine against TraverseReference,
// the materialize-and-rescan implementation it must match pick for pick (see
// the equivalence tests and FuzzTraverseParity). Traversal is 1–2 % of every
// end-to-end workload, so this is the only place its cost is visible. The
// corpus is the candidate-heavy `wide` preset, and the source is the one
// whose traversal prunes the most candidate-rounds: the deepest
// bound-and-prune run the preset produces, and a deterministic pick.
func BenchmarkTraverse(b *testing.B) {
	wide, err := benchmark.BuildWidePreset(0, 11)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := discovery.DefaultOptions()
	opts.MaxCandidates = 256
	var src *table.Table
	var tables []*table.Table
	bestPruned := -1
	for _, s := range wide.Sources {
		cands, err := discovery.DiscoverWithSnapContext(ctx, wide.Lake.Snapshot(), &index.IndexSet{}, s, opts)
		if err != nil {
			b.Fatal(err)
		}
		ts := make([]*table.Table, len(cands))
		for i, c := range cands {
			ts[i] = c.Table
		}
		var st TraverseStats
		TraverseContext(ctx, s, ts, ThreeValued, TraverseOptions{OnStats: func(got TraverseStats) { st = got }})
		if st.CandidatesPruned > bestPruned {
			src, tables, bestPruned = s, ts, st.CandidatesPruned
		}
	}

	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TraverseContext(ctx, src, tables, ThreeValued, TraverseOptions{})
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TraverseReference(src, tables, ThreeValued)
		}
	})
}
