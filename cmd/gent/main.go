// Command gent reclaims a Source Table (a CSV with a header) against a data
// lake (a directory of CSVs), printing the originating tables, the reclaimed
// table, and the effectiveness report.
//
// With -index-dir, the discovery indexes are loaded from that directory when
// present and built-and-saved there otherwise, so repeated invocations over
// the same lake skip index construction (index once, query many).
//
// With -timeout, a pathological query is cut off at the deadline with a
// phase-tagged error; -progress streams per-phase events (discovery
// candidate counts, every traversal pick, integration) to stderr.
//
// With -max-resident-mb, the interned forms of lake tables are capped at a
// byte budget: least-recently-used forms are evicted under pressure and come
// back transparently on the next query — from segment files under -store-dir
// when given (a block read, no re-hashing), by re-interning otherwise.
// Results are bit-identical either way; -stats reports what the cache did on
// every exit path, including error and deadline exits.
//
// Usage:
//
//	gent -source source.csv -lake ./lake [-out reclaimed.csv] [-tau 0.2]
//	     [-topk 0] [-max-candidates 15] [-key id,name] [-index-dir ./lake.idx]
//	     [-timeout 30s] [-progress] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	     [-store-dir ./lake.seg] [-max-resident-mb 256] [-stats]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"gent/internal/core"
	"gent/internal/server/boot"
	"gent/internal/table"
)

func main() {
	var (
		shared     = boot.RegisterFlags(flag.CommandLine)
		sourcePath = flag.String("source", "", "path to the Source Table CSV (required)")
		outPath    = flag.String("out", "", "write the reclaimed table to this CSV")
		keySpec    = flag.String("key", "", "comma-separated key columns (default: mined)")
		explain    = flag.Bool("explain", false, "print a per-tuple reclamation breakdown")
		jsonOut    = flag.Bool("json", false, "print the result as JSON instead of text")
		quiet      = flag.Bool("q", false, "print only the report line")
		timeout    = flag.Duration("timeout", 0, "abort the reclamation after this long (0 = no deadline)")
		progress   = flag.Bool("progress", false, "stream per-phase progress events to stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		stats      = flag.Bool("stats", false, "print resident-cache statistics to stderr on exit (including error and deadline exits)")
	)
	flag.Parse()
	if *sourcePath == "" || shared.Lake.Dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPU := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		prev := flushProfiles
		flushProfiles = func() { stopCPU(); prev() }
	}
	if *memProfile != "" {
		path := *memProfile
		writeHeap := func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "warning: %v\n", err)
				return
			}
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "warning: %v\n", err)
			}
			f.Close()
		}
		// prev (the CPU stop) runs first, so the heap write's forced GC and
		// encoding work cannot pollute the CPU profile's tail.
		prev := flushProfiles
		flushProfiles = func() { prev(); writeHeap() }
	}
	// Error paths leave through os.Exit, which skips defers — fatal() and the
	// deadline exit flush explicitly, so a failing or timed-out run (the case
	// profiling exists for) still produces its profiles.
	defer flushOnce()

	src, err := table.LoadCSVFile(*sourcePath)
	if err != nil {
		fatal(err)
	}
	if *keySpec != "" {
		for _, col := range strings.Split(*keySpec, ",") {
			i := src.ColIndex(strings.TrimSpace(col))
			if i < 0 {
				fatal(fmt.Errorf("source has no column %q", col))
			}
			src.Key = append(src.Key, i)
		}
	}

	l, err := boot.OpenLake(shared.Lake, boot.Stderr)
	if err != nil {
		fatal(err)
	}
	if *stats {
		// Chained onto the profile flush so every exit path — success, fatal,
		// the deadline exit — reports what the resident cache did.
		prev := flushProfiles
		flushProfiles = func() {
			prev()
			s := l.CacheStats()
			fmt.Fprintf(os.Stderr,
				"cache: resident=%d tables (%.1f MiB, budget %.1f MiB) hits=%d misses=%d evictions=%d spills=%d loads=%d reinterns=%d\n",
				s.Resident, float64(s.ResidentBytes)/(1<<20), float64(s.Budget)/(1<<20),
				s.Hits, s.Misses, s.Evictions, s.Spills, s.Loads, s.Reinterns)
		}
	}

	session := core.NewReclaimer(l, shared.Config())
	if shared.IndexDir != "" {
		// The load-or-rebuild cascade lives in internal/server/boot,
		// shared with gentd so the two front ends cannot drift.
		out, err := boot.AdoptIndexes(session, shared.IndexDir, boot.Stderr)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Println(out.Message(shared.IndexDir))
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts []core.Option
	if *progress {
		opts = append(opts, core.WithObserver(core.ObserverFunc(progressLine)))
	}
	res, err := session.ReclaimContext(ctx, src, opts...)
	if err != nil {
		var gerr *core.Error
		if errors.As(err, &gerr) && errors.Is(err, context.DeadlineExceeded) {
			// The error string already carries the phase and source; add how
			// long the pipeline had run (completed phases + the failing
			// phase's partial time) when the deadline fired.
			flushOnce()
			fmt.Fprintf(os.Stderr, "%v (pipeline had run for %s when the %s deadline fired)\n",
				err, gerr.Timing.Total(), *timeout)
			os.Exit(1)
		}
		fatal(err)
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout, src); err != nil {
			fatal(err)
		}
		if *outPath != "" {
			if err := table.SaveCSVFile(*outPath, res.Reclaimed); err != nil {
				fatal(err)
			}
		}
		return
	}

	if !*quiet {
		stats := l.ComputeStats()
		fmt.Printf("lake: %d tables (%s)\n", stats.Tables, stats)
		fmt.Printf("candidates: %d, originating tables: %d\n",
			res.CandidateCount, len(res.Originating))
		for _, c := range res.Originating {
			fmt.Printf("  - %s\n", strings.Join(c.Sources, " ⋈ "))
		}
		fmt.Printf("timing: discover=%s traverse=%s integrate=%s evaluate=%s total=%s\n",
			res.Timing.Discover, res.Timing.Traverse, res.Timing.Integrate,
			res.Timing.Evaluate, res.Timing.Total())
	}
	r := res.Report
	fmt.Printf("EIS=%.3f Rec=%.3f Pre=%.3f Inst-Div=%.3f DKL=%.3f perfect=%v\n",
		r.EIS, r.Recall, r.Precision, r.InstDiv, r.DKL, r.PerfectReclamation)

	if *explain {
		fmt.Print(res.Explain(src).String())
	}

	if *outPath != "" {
		if err := table.SaveCSVFile(*outPath, res.Reclaimed); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("reclaimed table written to %s\n", *outPath)
		}
	} else if !*quiet {
		fmt.Print(res.Reclaimed.String())
	}
}

// progressLine renders one structured phase event for -progress.
func progressLine(ev core.ProgressEvent) {
	switch ev.Kind {
	case core.EventPhaseStarted:
		fmt.Fprintf(os.Stderr, "[%s] started\n", ev.Phase)
	case core.EventTraverseRound:
		fmt.Fprintf(os.Stderr, "[%s] round %d: picked candidate %d (EIS %.4f)\n",
			ev.Phase, ev.Round, ev.Pick, ev.Score)
	case core.EventPhaseDone:
		switch ev.Phase {
		case core.PhaseDiscovery:
			fmt.Fprintf(os.Stderr, "[%s] done in %s: %d candidates\n", ev.Phase, ev.Elapsed.Round(time.Microsecond), ev.Count)
		case core.PhaseTraversal:
			fmt.Fprintf(os.Stderr, "[%s] done in %s: %d originating tables\n", ev.Phase, ev.Elapsed.Round(time.Microsecond), ev.Count)
		case core.PhaseIntegration:
			fmt.Fprintf(os.Stderr, "[%s] done in %s: %d rows\n", ev.Phase, ev.Elapsed.Round(time.Microsecond), ev.Count)
		case core.PhaseEvaluation:
			fmt.Fprintf(os.Stderr, "[%s] done in %s: EIS %.4f\n", ev.Phase, ev.Elapsed.Round(time.Microsecond), ev.Score)
		default:
			fmt.Fprintf(os.Stderr, "[%s] done in %s\n", ev.Phase, ev.Elapsed.Round(time.Microsecond))
		}
	}
}

// flushProfiles finalizes any active profiling; flushOnce makes the normal
// defer and the os.Exit paths safe to both call it.
var (
	flushProfiles = func() {}
	flushGuard    sync.Once
)

func flushOnce() { flushGuard.Do(func() { flushProfiles() }) }

func fatal(err error) {
	flushOnce()
	msg := err.Error()
	if !strings.HasPrefix(msg, "gent: ") {
		msg = "gent: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
