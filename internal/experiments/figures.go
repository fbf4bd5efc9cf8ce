package experiments

import (
	"context"
	"time"

	"gent/internal/benchmark"
	"gent/internal/metrics"
)

// Fig6Row is one bar of Figure 6: a method's average recall and precision on
// one query class of one benchmark.
type Fig6Row struct {
	Benchmark string
	Class     benchmark.QueryClass
	Method    Method
	Recall    float64
	Precision float64
	Sources   int
}

// Figure6 breaks effectiveness down by the query class that produced each
// Source Table, for each TP-TR benchmark.
func Figure6(ctx context.Context, set *BenchmarkSet, methods []Method, opts RunOptions) []Fig6Row {
	benches := []*benchmark.TPTR{set.Small, set.Med, set.Large}
	var out []Fig6Row
	for _, b := range benches {
		classOf := make(map[string]benchmark.QueryClass)
		for i, q := range b.Queries {
			classOf[b.Sources[i].Name] = q.Class
		}
		res := RunEffectivenessContext(ctx, b.Name, b, methods, opts)
		type acc struct {
			rec, pre float64
			n        int
		}
		agg := make(map[benchmark.QueryClass]map[Method]*acc)
		for _, d := range res.Detail {
			c := classOf[d.Source]
			if agg[c] == nil {
				agg[c] = make(map[Method]*acc)
			}
			a := agg[c][d.Method]
			if a == nil {
				a = &acc{}
				agg[c][d.Method] = a
			}
			a.rec += d.Report.Recall
			a.pre += d.Report.Precision
			a.n++
		}
		for _, c := range []benchmark.QueryClass{benchmark.ClassPSU, benchmark.ClassOneJoin, benchmark.ClassMultiJoin} {
			for _, m := range methods {
				if a := agg[c][m]; a != nil && a.n > 0 {
					out = append(out, Fig6Row{
						Benchmark: b.Name, Class: c, Method: m,
						Recall:    a.rec / float64(a.n),
						Precision: a.pre / float64(a.n),
						Sources:   a.n,
					})
				}
			}
		}
	}
	return out
}

// Fig7Point is one point of Figure 7: Gen-T's precision at one injected
// noise percentage.
type Fig7Point struct {
	// Sweep is "erroneous" or "nullified" — which rate is being varied.
	Sweep     string
	Percent   int
	Precision float64
	EIS       float64
}

// Figure7 sweeps the percentage of erroneous values (nulls fixed at 50%) and
// the percentage of nullified values (errors fixed at 50%) and reports
// Gen-T's precision, reproducing the two lines of Figure 7.
func Figure7(ctx context.Context, base SetOptions, percents []int, opts RunOptions) ([]Fig7Point, error) {
	if len(percents) == 0 {
		percents = []int{10, 30, 50, 70, 90}
	}
	var out []Fig7Point
	run := func(sweep string, pct int, nullRate, errRate float64) error {
		o := benchmark.DefaultTPTROptions()
		o.Scale.Base = base.MedBase
		o.Scale.Seed = base.Seed
		o.Seed = base.Seed
		o.NullRate = nullRate
		o.ErrRate = errRate
		o.MaxSourceRows = base.MaxSourceRows
		b, err := benchmark.BuildTPTR("fig7", o)
		if err != nil {
			return err
		}
		res := RunEffectivenessContext(ctx, b.Name, b, []Method{MethodGenT}, opts)
		out = append(out, Fig7Point{
			Sweep:     sweep,
			Percent:   pct,
			Precision: res.Rows[0].Avg.Precision,
			EIS:       res.Rows[0].Avg.EIS,
		})
		return nil
	}
	for _, pct := range percents {
		if err := run("erroneous", pct, 0.5, float64(pct)/100); err != nil {
			return nil, err
		}
	}
	for _, pct := range percents {
		if err := run("nullified", pct, float64(pct)/100, 0.5); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig8Row is one bar pair of Figure 8: a method's average runtime and
// output-size ratio on one benchmark.
type Fig8Row struct {
	Benchmark    string
	Method       Method
	AvgRuntime   time.Duration
	AvgSizeRatio float64
	Timeouts     int
}

// Figure8 measures scalability: average runtimes (8a) and output-size ratios
// (8b) across the four TP-TR-based benchmarks. Methods that the paper could
// only run on Small are likewise restricted here.
func Figure8(ctx context.Context, set *BenchmarkSet, opts RunOptions) []Fig8Row {
	var out []Fig8Row
	collect := func(res EffectivenessResult) {
		for _, row := range res.Rows {
			out = append(out, Fig8Row{
				Benchmark:    res.Benchmark,
				Method:       row.Method,
				AvgRuntime:   row.AvgRuntime,
				AvgSizeRatio: row.AvgSizeRatio,
				Timeouts:     row.Timeouts,
			})
		}
	}
	smallMethods := []Method{MethodALITE, MethodALITEPS, MethodAutoPipeline, MethodGenT}
	medMethods := []Method{MethodALITE, MethodALITEPS, MethodGenT}
	largeMethods := []Method{MethodALITEPS, MethodGenT}
	santosOpts := opts
	santosOpts.Discovery.FirstStageTopK = 60
	collect(RunEffectivenessContext(ctx, "TP-TR Small", set.Small, smallMethods, opts))
	collect(RunEffectivenessContext(ctx, "TP-TR Med", set.Med, medMethods, opts))
	collect(RunEffectivenessContext(ctx, "SANTOS Large+TP-TR Med", set.SantosMed, medMethods, santosOpts))
	collect(RunEffectivenessContext(ctx, "TP-TR Large", set.Large, largeMethods, opts))
	return out
}

// Fig9Row is one source's scores for Gen-T and ALITE-PS on TP-TR Med.
type Fig9Row struct {
	Source string
	GenT   metrics.Report
	ALITE  metrics.Report
}

// Figure9 reproduces the per-source breakdown of Gen-T vs ALITE-PS.
func Figure9(ctx context.Context, set *BenchmarkSet, opts RunOptions) []Fig9Row {
	res := RunEffectivenessContext(ctx, "TP-TR Med", set.Med, []Method{MethodGenT, MethodALITEPS}, opts)
	bySource := make(map[string]*Fig9Row)
	var order []string
	for _, d := range res.Detail {
		row := bySource[d.Source]
		if row == nil {
			row = &Fig9Row{Source: d.Source}
			bySource[d.Source] = row
			order = append(order, d.Source)
		}
		switch d.Method {
		case MethodGenT:
			row.GenT = d.Report
		case MethodALITEPS:
			row.ALITE = d.Report
		}
	}
	out := make([]Fig9Row, 0, len(order))
	for _, s := range order {
		out = append(out, *bySource[s])
	}
	return out
}
