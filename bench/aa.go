package main

import (
	"context"
	"fmt"
	"os"
)

// runAA is the benchmark driver's acceptance procedure on identical code: the
// selected workloads n times back to back, every run with another seed (seed,
// seed+1, …), then per workload and metric min / median / max and the spread
// the builder contract judges noise by (interquartile distance ÷ median)
// against the metric's declared bound. It returns non-zero when a run failed
// its checks or a gated metric's spread exceeds its bound.
func runAA(ctx context.Context, only string, opt options, n int) int {
	bounds := make(map[string]float64)
	for _, d := range endToEndCatalog {
		bounds[d.Name] = d.Bound
	}
	bad := false
	for _, proto := range workloads() {
		if only != "" && only != proto.name() {
			continue
		}
		values := make(map[string][]float64)
		var order []string
		for i := 0; i < n; i++ {
			o := opt
			o.seed = opt.seed + int64(i)
			rep, err := runWorkload(ctx, newWorkload(proto.name()), o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if rep.Failed > 0 {
				printReport(rep)
				bad = true
			}
			for _, m := range rep.Metrics {
				if _, seen := values[m.Name]; !seen {
					order = append(order, m.Name)
				}
				values[m.Name] = append(values[m.Name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", proto.name(), i+1, n)
		}
		fmt.Printf("== A/A %s  runs=%d seeds=%d..%d\n", proto.name(), n, opt.seed, opt.seed+int64(n)-1)
		fmt.Printf("   %-26s %12s %12s %12s %8s %7s\n", "metric", "min", "median", "max", "iqr/med", "bound")
		for _, name := range order {
			xs := values[name]
			spread := quartileSpread(xs)
			b, gated := bounds[name]
			verdict, limit := "", "-"
			if gated {
				limit = fmt.Sprintf("%.3f", b)
				switch {
				case spread > b:
					verdict, bad = "  NOISY (spread over bound)", true
				case spread > b/3:
					verdict = "  (over a third of the bound)"
				}
			}
			fmt.Printf("   %-26s %12.4f %12.4f %12.4f %8.4f %7s%s\n",
				name, percentile(xs, 0), median(xs), percentile(xs, 1), spread, limit, verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}
