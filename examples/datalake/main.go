// Datalake: a realistic on-disk workflow. This example materializes a
// TP-TR-style benchmark lake to a temporary directory (32 CSV files: clean
// tables perturbed into nullified and erroneous variants), loads it back the
// way a user would load their own lake, and reclaims one of the benchmark's
// query-defined Source Tables — comparing Gen-T's output against plain full
// disjunction of the same inputs.
//
//	go run ./examples/datalake
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gent"
	"gent/internal/baselines/alite"
	"gent/internal/benchmark"
)

func main() {
	dir, err := os.MkdirTemp("", "gent-datalake-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Build a small TP-TR benchmark and write its lake to disk.
	opts := benchmark.DefaultTPTROptions()
	opts.Scale.Base = 20
	opts.MaxSourceRows = 50
	b, err := benchmark.BuildTPTR("example", opts)
	if err != nil {
		panic(err)
	}
	if err := b.Lake.SaveDir(filepath.Join(dir, "lake")); err != nil {
		panic(err)
	}
	srcPath := filepath.Join(dir, "source.csv")
	src := b.Sources[0]
	if err := gent.SaveTable(srcPath, src); err != nil {
		panic(err)
	}

	// From here on: the user's workflow over files.
	l, errs := gent.LoadLake(filepath.Join(dir, "lake"))
	for _, e := range errs {
		fmt.Println("warning:", e)
	}
	loaded, err := gent.LoadTable(srcPath)
	if err != nil {
		panic(err)
	}
	// The CSV does not carry the key; mine it.
	loaded.Key = gent.MineKey(loaded, 2)
	fmt.Printf("lake: %d tables; source %q: %d rows, key %v\n",
		l.Snapshot().Len(), loaded.Name, loaded.NumRows(), loaded.KeyCols())

	// A file-backed run is exactly where a deadline matters: a malformed or
	// adversarial lake cannot hang the pipeline past the budget.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := gent.ReclaimContext(ctx, l, loaded, gent.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nGen-T: EIS=%.3f Rec=%.3f Pre=%.3f (%d candidates → %d originating)\n",
		res.Report.EIS, res.Report.Recall, res.Report.Precision,
		res.CandidateCount, len(res.Originating))
	fmt.Printf("timing: discover=%s traverse=%s integrate=%s evaluate=%s\n",
		res.Timing.Discover, res.Timing.Traverse, res.Timing.Integrate, res.Timing.Evaluate)

	// Contrast with the integration baseline given the same knowledge: full
	// disjunction over the benchmark's known integrating set.
	fd := alite.IntegratePS(loaded, b.IntegratingTables(src.Name), alite.Options{MaxRows: 20000})
	fdRep := gent.Evaluate(loaded, fd.Table)
	fmt.Printf("\nALITE-PS w/ int. set: Rec=%.3f Pre=%.3f (output %dx source size)\n",
		fdRep.Recall, fdRep.Precision, int(fdRep.SizeRatio))
	fmt.Println("\nGen-T reclaims from discovered tables only, filters the")
	fmt.Println("erroneous variants, and keeps the output close to source-sized.")
}
