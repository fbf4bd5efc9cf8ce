// Command experiments regenerates the paper's evaluation: every table and
// figure of Section VI plus the appendix baseline and the design-choice
// ablations, printed in the same rows/series the paper reports. Every
// experiment over a corpus shares one Reclaimer session, so each benchmark
// lake is indexed once no matter how many tables and figures query it.
//
// Usage:
//
//	experiments [-exp all|table1|table2|table3|table4|fig6|fig7|fig8|fig9|t2d|llm|ablations]
//	            [-small 24] [-med 80] [-large 200] [-distractors 120] [-seed 17]
//	            [-parallel 1] [-timeout 10m]
//
// The default sizes are scaled down to run in minutes; raise the flags to
// approach the paper's scales.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gent/internal/experiments"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "which experiment to run")
		smallBase   = flag.Int("small", 24, "TP-TR Small scale base")
		medBase     = flag.Int("med", 80, "TP-TR Med scale base")
		largeBase   = flag.Int("large", 200, "TP-TR Large scale base")
		distractors = flag.Int("distractors", 120, "SANTOS-style distractor tables")
		wdc         = flag.Int("wdc", 300, "WDC-style corpus size")
		maxRows     = flag.Int("max-source-rows", 120, "cap per Source Table")
		seed        = flag.Int64("seed", 17, "generation seed")
		parallel    = flag.Int("parallel", 1, "sources evaluated concurrently over the shared per-corpus indexes (keep 1 for runtime figures)")
		timeout     = flag.Duration("timeout", 0, "deadline for the effectiveness tables (table2, table3, table4); expired Gen-T runs abort at the next phase boundary and score as failures (0 = none)")
	)
	flag.Parse()

	// The -timeout deadline covers the effectiveness tables only; every other
	// experiment runs under bg.
	bg := context.Background()
	ctx := bg
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	setOpts := experiments.DefaultSetOptions()
	setOpts.SmallBase = *smallBase
	setOpts.MedBase = *medBase
	setOpts.LargeBase = *largeBase
	setOpts.Distractors = *distractors
	setOpts.WDCTables = *wdc
	setOpts.MaxSourceRows = *maxRows
	setOpts.Seed = *seed

	runOpts := experiments.DefaultRunOptions()
	runOpts.Parallel = *parallel

	need := func(names ...string) bool {
		if *exp == "all" {
			return true
		}
		for _, n := range names {
			if *exp == n {
				return true
			}
		}
		return false
	}

	var set *experiments.BenchmarkSet
	buildSet := func() *experiments.BenchmarkSet {
		if set == nil {
			var err error
			set, err = experiments.BuildSet(setOpts)
			if err != nil {
				fatal(err)
			}
		}
		return set
	}

	if need("table1") {
		fmt.Println("### Table I: benchmark statistics")
		fmt.Println(experiments.RenderTable1(experiments.Table1(buildSet())))
	}
	if need("table2") {
		fmt.Println("### Table II: effectiveness on the larger TP-TR benchmarks")
		for _, res := range experiments.Table2Context(ctx, buildSet(), runOpts) {
			fmt.Println(experiments.RenderEffectiveness(res))
		}
	}
	if need("table3") {
		fmt.Println("### Table III: all baselines on TP-TR Small")
		fmt.Println(experiments.RenderEffectiveness(experiments.Table3Context(ctx, buildSet(), runOpts)))
	}
	if need("table4") {
		fmt.Println("### Table IV: sources from T2D immersed in the WDC sample")
		fmt.Println(experiments.RenderEffectiveness(experiments.Table4Context(ctx, buildSet().WDC, runOpts)))
	}
	if need("fig6") {
		fmt.Println("### Figure 6: recall/precision by query class")
		methods := []experiments.Method{
			experiments.MethodALITEPS, experiments.MethodGenT,
		}
		fmt.Println(experiments.RenderFigure6(experiments.Figure6(bg, buildSet(), methods, runOpts)))
	}
	if need("fig7") {
		fmt.Println("### Figure 7: precision vs injected noise")
		points, err := experiments.Figure7(bg, setOpts, []int{10, 30, 50, 70, 90}, runOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderFigure7(points))
	}
	if need("fig8") {
		fmt.Println("### Figure 8: scalability (runtimes and output sizes)")
		fmt.Println(experiments.RenderFigure8(experiments.Figure8(bg, buildSet(), runOpts)))
	}
	if need("fig9") {
		fmt.Println("### Figure 9: per-source Gen-T vs ALITE-PS on TP-TR Med")
		fmt.Println(experiments.RenderFigure9(experiments.Figure9(bg, buildSet(), runOpts)))
	}
	if need("t2d") {
		fmt.Println("### Section VI-D: T2D self-reclamation")
		fmt.Println(experiments.RenderT2DSelf(experiments.T2DSelfReclamation(bg, buildSet().T2D, runOpts)))
	}
	if need("llm") {
		fmt.Println("### Appendix F: LLM baseline (deterministic stand-in)")
		fmt.Println(experiments.RenderEffectiveness(experiments.AppendixLLM(bg, buildSet(), runOpts)))
	}
	if need("ablations") {
		fmt.Println("### Ablations")
		b := buildSet().Small
		fmt.Println(experiments.RenderAblation(experiments.AblationMatrixEncoding(bg, b, runOpts)))
		fmt.Println(experiments.RenderAblation(experiments.AblationTraversal(bg, b, runOpts)))
		fmt.Println(experiments.RenderAblation(experiments.AblationDiversify(bg, b, runOpts)))
		fmt.Println(experiments.RenderAblation(experiments.AblationGuardedOps(bg, b, runOpts)))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
