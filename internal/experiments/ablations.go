package experiments

import (
	"context"
	"fmt"
	"strings"

	"gent/internal/baselines/alite"
	"gent/internal/benchmark"
	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/matrix"
	"gent/internal/metrics"
	"gent/internal/table"
)

// AblationRow compares two configurations of one design choice.
type AblationRow struct {
	Name    string
	With    metrics.Report
	Without metrics.Report
}

// AblationMatrixEncoding compares Gen-T with three-valued matrices against
// the two-valued strawman of Section V-A2.
func AblationMatrixEncoding(ctx context.Context, b *benchmark.TPTR, opts RunOptions) AblationRow {
	session := sessionFor(b.Lake)
	run := func(enc matrix.Encoding) metrics.Report {
		cfg := opts.config()
		cfg.Encoding = enc
		reports := make([]metrics.Report, 0, len(b.Sources))
		for _, src := range b.Sources {
			res, err := session.WithConfig(cfg).ReclaimContext(ctx, src)
			if err != nil {
				continue
			}
			reports = append(reports, res.Report)
		}
		return metrics.Average(reports)
	}
	return AblationRow{
		Name:    "three-valued vs two-valued matrices",
		With:    run(matrix.ThreeValued),
		Without: run(matrix.TwoValued),
	}
}

// AblationTraversal compares Gen-T against integrating every candidate
// without Matrix Traversal pruning.
func AblationTraversal(ctx context.Context, b *benchmark.TPTR, opts RunOptions) AblationRow {
	session := sessionFor(b.Lake)
	run := func(skip bool) metrics.Report {
		cfg := opts.config()
		cfg.SkipTraversal = skip
		reports := make([]metrics.Report, 0, len(b.Sources))
		for _, src := range b.Sources {
			res, err := session.WithConfig(cfg).ReclaimContext(ctx, src)
			if err != nil {
				continue
			}
			reports = append(reports, res.Report)
		}
		return metrics.Average(reports)
	}
	return AblationRow{
		Name:    "matrix-traversal pruning vs integrate-all",
		With:    run(false),
		Without: run(true),
	}
}

// AblationDiversify compares discovery with and without Algorithm 4's
// candidate diversification, on a duplicate-heavy version of the lake —
// public lakes hold many copies of the same tables (Example 9), and that is
// the regime diversification exists for: without it, duplicates crowd the
// candidate cap.
func AblationDiversify(ctx context.Context, b *benchmark.TPTR, opts RunOptions) AblationRow {
	dupLake := lakeWithDuplicates(b)
	session := core.NewReclaimer(dupLake, core.DefaultConfig())
	run := func(diversify bool) metrics.Report {
		cfg := opts.config()
		// Diversification and subsumed-candidate removal are Algorithm 3's
		// two redundancy controls; the ablation removes both.
		cfg.Discovery.Diversify = diversify
		cfg.Discovery.RemoveSubsumed = diversify
		// A tight candidate cap makes crowding observable at small scale.
		cfg.Discovery.MaxCandidates = 10
		reports := make([]metrics.Report, 0, len(b.Sources))
		for _, src := range b.Sources {
			res, err := session.WithConfig(cfg).ReclaimContext(ctx, src)
			if err != nil {
				continue
			}
			reports = append(reports, res.Report)
		}
		return metrics.Average(reports)
	}
	return AblationRow{
		Name:    "diversified vs raw candidate ranking (duplicate-heavy lake)",
		With:    run(true),
		Without: run(false),
	}
}

// lakeWithDuplicates clones a benchmark lake and adds two exact copies of
// every nullified variant (the tables worth crowding out).
func lakeWithDuplicates(b *benchmark.TPTR) *lake.Lake {
	out := lake.New()
	var muts []lake.Mutation
	for _, t := range b.Lake.Snapshot().Tables() {
		muts = append(muts, lake.Put(t))
		if strings.Contains(t.Name, "_err") {
			for i := 1; i <= 2; i++ {
				cp := t.Clone()
				cp.Name = fmt.Sprintf("%s_copy%d", t.Name, i)
				muts = append(muts, lake.Put(cp))
			}
		}
	}
	if _, err := out.Apply(context.Background(), muts...); err != nil {
		panic(err) // clones of lake members always apply cleanly
	}
	return out
}

// AblationGuardedOps compares Algorithm 2's guarded κ/β integration against
// unconditional full disjunction over the same originating tables.
func AblationGuardedOps(ctx context.Context, b *benchmark.TPTR, opts RunOptions) AblationRow {
	session := sessionFor(b.Lake)
	cfg := opts.config()
	withReports := make([]metrics.Report, 0, len(b.Sources))
	withoutReports := make([]metrics.Report, 0, len(b.Sources))
	for _, src := range b.Sources {
		res, err := session.WithConfig(cfg).ReclaimContext(ctx, src)
		if err != nil {
			continue
		}
		withReports = append(withReports, res.Report)
		origs := make([]*table.Table, len(res.Originating))
		for i, c := range res.Originating {
			origs[i] = c.Table
		}
		fd := alite.IntegratePS(src, origs, alite.Options{MaxRows: opts.FDMaxRows})
		withoutReports = append(withoutReports, metrics.Evaluate(src, fd.Table))
	}
	return AblationRow{
		Name:    "guarded κ/β vs unconditional full disjunction",
		With:    metrics.Average(withReports),
		Without: metrics.Average(withoutReports),
	}
}
