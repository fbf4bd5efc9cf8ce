// Command benchgen materializes the paper's benchmarks to disk as CSV
// directories: the TP-TR lake (variant tables), the Source Tables, and
// optionally the distractor and web-table corpora.
//
// Usage:
//
//	benchgen -out ./bench [-base 30] [-null 0.5] [-err 0.5] [-seed 11]
//	         [-distractors 0] [-t2d 0] [-preset large|wide]
//	         [-tables 100000] [-slices 24]
//
// The `large` preset materializes the beyond-RAM acceptance corpus: the TP-TR
// benchmark (so the Sources stay exactly reclaimable) embedded in
// open-data-portal-shaped volume up to -tables tables (default 100000) —
// log-uniform row skew, domain-clustered vocabularies, dense portal-wide
// columns. internal/benchmark's storage benchmarks generate the same corpus
// (scaled down) in-process via benchmark.BuildLargePreset.
//
// The `wide` preset is the candidate-heavy traversal corpus: TP-TR plus
// -slices noisy row/column slices of every original table (default 24), so
// each source faces dozens of overlapping plausible candidates — the regime
// the bound-and-prune traversal engine targets. In-process equivalent:
// benchmark.BuildWidePreset.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gent/internal/benchmark"
	"gent/internal/table"
)

func main() {
	var (
		outDir      = flag.String("out", "", "output directory (required)")
		base        = flag.Int("base", 30, "TPC-H scale base (customer count)")
		nullRate    = flag.Float64("null", 0.5, "nullified-variant rate")
		errRate     = flag.Float64("err", 0.5, "erroneous-variant rate")
		seed        = flag.Int64("seed", 11, "generation seed")
		distractors = flag.Int("distractors", 0, "additional distractor web tables")
		t2d         = flag.Int("t2d", 0, "also generate a T2D-style corpus of this size")
		maxRows     = flag.Int("max-source-rows", 1000, "cap per Source Table")
		preset      = flag.String("preset", "", `corpus preset: "large" embeds TP-TR in open-data-shaped volume, "wide" multiplies candidates per source`)
		tables      = flag.Int("tables", benchmark.LargeCorpusTables, "total table count for -preset large")
		slices      = flag.Int("slices", benchmark.WidePresetSlices, "per-original slice count for -preset wide")
	)
	flag.Parse()
	if *outDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	var b *benchmark.TPTR
	var err error
	switch *preset {
	case "large":
		b, err = benchmark.BuildLargePreset(*tables, *seed)
	case "wide":
		b, err = benchmark.BuildWidePreset(*slices, *seed)
	case "":
		opts := benchmark.DefaultTPTROptions()
		opts.Scale.Base = *base
		opts.Scale.Seed = *seed
		opts.Seed = *seed
		opts.NullRate = *nullRate
		opts.ErrRate = *errRate
		opts.MaxSourceRows = *maxRows
		b, err = benchmark.BuildTPTR("tp-tr", opts)
	default:
		fatal(fmt.Errorf("unknown preset %q", *preset))
	}
	if err != nil {
		fatal(err)
	}
	if *distractors > 0 {
		benchmark.AddDistractors(b.Lake, *distractors, 20, *seed+1)
	}

	if err := b.Lake.SaveDir(filepath.Join(*outDir, "lake")); err != nil {
		fatal(err)
	}
	for _, src := range b.Sources {
		path := filepath.Join(*outDir, "sources", src.Name+".csv")
		if err := table.SaveCSVFile(path, src); err != nil {
			fatal(err)
		}
	}
	stats := b.Lake.ComputeStats()
	fmt.Printf("wrote %d lake tables and %d sources to %s\n",
		stats.Tables, len(b.Sources), *outDir)
	fmt.Printf("lake stats: %s\n", stats)

	if *t2d > 0 {
		corpus := benchmark.BuildT2D(*t2d, *t2d/10+1, *t2d/20+1, *seed+2)
		if err := corpus.Lake.SaveDir(filepath.Join(*outDir, "t2d")); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d T2D-style tables (%d reclaimable)\n",
			corpus.Lake.Snapshot().Len(), len(corpus.Reclaimable))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
