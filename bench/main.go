// Command bench is the repo's performance benchmark: four seeded workloads,
// one closed-loop client, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md in this directory.
//
//	go run ./bench                               # the whole suite, untraced
//	go run ./bench -trace                        # the whole suite, traced
//	go run ./bench -workload wide_candidates -seconds 12 -seed 3 -trace 0
//	go run ./bench -aa 10                        # A/A noise table, the driver's procedure
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// workloads lists the suite in its fixed order; later issues refer to the
// names.
func workloads() []workload {
	return []workload{newBigSrc(), newWide(), newColdStart(), newChurn()}
}

// newWorkload returns a fresh instance of the named workload, nil if unknown.
func newWorkload(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// normalizeArgs lets -trace be written both as a bare switch and with a
// separate 0/1 operand (the form the benchmark driver uses), which the flag
// package would otherwise read as a positional argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 11, "seed of the operations: where the sweeps start, the churn rotation, the oracles' samples (the corpus is fixed)")
	seconds := fs.Float64("seconds", 30, "timed-phase budget per workload; whole passes are fitted into it")
	passes := fs.Int("passes", 0, "fix the number of timed passes instead of fitting -seconds")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	asJSON := fs.Bool("json", false, "suite runs: end with a one-line JSON summary")
	check := fs.Bool("check", true, "verify outputs against the oracles (outside timed regions)")
	aa := fs.Int("aa", 0, "run everything N times back to back (seed, seed+1, ...) and print the spread of every metric against its bound")
	workdir := fs.String("workdir", "bench/out", "directory for temporary inputs and trace files")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	// One closed-loop client; the program's own pools get at most 4 cores so
	// numbers from a big machine and the 2-core sandbox stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var suite []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name() {
			suite = append(suite, w)
		}
	}
	if len(suite) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	opt := options{inputs: inputs{seed: *seed, scale: fullScale}, seconds: *seconds, passes: *passes, setups: 3, check: *check,
		trace: *trace, workdir: *workdir}
	ctx := context.Background()
	if *aa > 0 {
		return runAA(ctx, *name, opt, *aa)
	}

	var reports []*report
	failed := false
	for _, w := range suite {
		rep, err := runWorkload(ctx, w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printReport(rep)
		reports = append(reports, rep)
		failed = failed || rep.Failed > 0
	}

	switch {
	case *name != "":
		// One workload: the driver's contract — the last line is one JSON
		// object with exactly these four keys.
		fmt.Println(contractLine(reports[0]))
	case *asJSON:
		b, err := json.Marshal(struct {
			GOMAXPROCS int       `json:"gomaxprocs"`
			Seed       int64     `json:"seed"`
			Traced     bool      `json:"traced"`
			Workloads  []*report `json:"workloads"`
			// This benchmark defines the baseline; it compares nothing
			// against a parent and claims no gain.
			Claim *string `json:"claim"`
		}{runtime.GOMAXPROCS(0), *seed, *trace, reports, nil})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
	}
	if failed {
		return 1
	}
	return 0
}

// printReport writes one workload's metrics by name, with units and the
// sample count behind every sample statistic.
func printReport(rep *report) {
	mode := "end-to-end (untraced)"
	if rep.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  %s  seed=%d gomaxprocs=%d passes=%d digest=%s\n",
		rep.Workload, mode, rep.Seed, rep.GOMAXPROCS, rep.Passes, rep.Digest)
	fmt.Printf("   why: %s\n", workloadWhy[rep.Workload])
	for _, m := range rep.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Printf("   %-26s %14.4f %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	failFrac := 0.0
	if rep.Attempted > 0 {
		failFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("   %-26s %14.6f %-6s  failed=%d attempted=%d\n", "fail_frac", failFrac, "ratio", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Printf("   FAIL %s\n", f)
	}
	if rep.Traced {
		fmt.Printf("   share of replayed-operation time by layer:\n%s", shareTable(rep))
		fmt.Printf("   spans: %s\n", rep.TraceFile)
	}
}

// contractLine renders a report as the driver's result object: the catalog's
// metrics for the run's mode, nothing else.
func contractLine(rep *report) string {
	defs := endToEndCatalog
	if rep.Traced {
		defs = perLayerCatalog
	}
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]reading, len(defs))
	for _, d := range defs {
		m, _ := rep.get(d.Name)
		ms[d.Name] = reading{m.Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{rep.Failed == 0, max(rep.Attempted, 1), rep.Failed, ms})
	if err != nil {
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return strings.TrimSpace(string(b))
}
