// Command gentd serves a data lake's reclamation engine over HTTP/JSON — the
// same pipeline cmd/gent runs one-shot, held resident behind a port: indexes
// built once, queries admitted through a bounded gate, results cached per
// epoch, mutations rolling the lake forward without a restart.
//
// Serve mode (the default) loads the lake the way cmd/gent does — same
// -lake/-index-dir/-store-dir/-max-resident-mb semantics, shared boot path —
// and listens until SIGTERM/SIGINT, then drains gracefully: health flips to
// 503, in-flight requests finish (bounded by -drain-timeout), the listener
// closes, exit 0.
//
// Client modes drive a running server:
//
//	gentd -loaddrive http://host:8080 -source q.csv [-duration 10s]
//	      [-concurrency 4] [-mutate-every 50]
//	gentd -smoke http://host:8080 -source q.csv
//
// -loaddrive reports throughput and latency percentiles; -smoke asserts the
// serving contract end to end (cache miss → hit → epoch bump → invalidation)
// and exits non-zero on any violation.
//
// Usage:
//
//	gentd -lake ./lake [-addr :8080] [-index-dir ./lake.idx]
//	      [-store-dir ./lake.seg] [-max-resident-mb 256]
//	      [-tau 0.2] [-topk 0] [-max-candidates 15]
//	      [-workers 0] [-queue 0] [-request-timeout 60s]
//	      [-drain-timeout 30s] [-cache-mb 64]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/embed"
	"gent/internal/server"
	"gent/internal/server/boot"
	"gent/internal/server/client"
	"gent/internal/table"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		lakeDir    = flag.String("lake", "", "directory of lake CSVs (required in serve mode)")
		indexDir   = flag.String("index-dir", "", "load persisted lake indexes from this directory, or build and save them there")
		storeDir   = flag.String("store-dir", "", "spill evicted interned tables to segment files under this directory")
		maxResMB   = flag.Int("max-resident-mb", 0, "cap resident interned-table memory at this many MiB (0 = unbounded)")
		tau        = flag.Float64("tau", 0.2, "set-overlap threshold τ")
		topK       = flag.Int("topk", 0, "first-stage LSH retrieval size (0 = search the whole lake)")
		maxCands   = flag.Int("max-candidates", 15, "candidate set cap")
		workers    = flag.Int("workers", 0, "concurrent reclaim slots (0 = session traverse workers, else GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth beyond the slots (0 = 4x workers)")
		reqTimeout = flag.Duration("request-timeout", 60*time.Second, "maximum wall time per reclaim request")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		cacheMB    = flag.Int("cache-mb", 64, "result-cache byte budget in MiB (0 = default, negative = disabled)")
		strategy   = flag.String("strategy", "", "default discovery strategy: syntactic (default), semantic, or hybrid (clients may override per request)")
		semTau     = flag.Float64("semantic-tau", 0, "semantic cosine threshold (0 = default)")
		vectors    = flag.String("vectors", "", "word-vector file (fasttext text format) for the semantic channel; default: built-in hashed n-gram embedder")

		loaddrive   = flag.String("loaddrive", "", "drive load against a running gentd at this base URL instead of serving")
		smoke       = flag.String("smoke", "", "run the serving-contract smoke against a running gentd at this base URL instead of serving")
		sourcePath  = flag.String("source", "", "source CSV for -loaddrive / -smoke")
		duration    = flag.Duration("duration", 10*time.Second, "-loaddrive run length")
		concurrency = flag.Int("concurrency", 4, "-loaddrive closed-loop workers")
		mutateEvery = flag.Int("mutate-every", 0, "-loaddrive: interleave one epoch-rolling Apply every N requests (0 = read-only)")
		omitTable   = flag.Bool("omit-table", false, "-loaddrive: skip result payloads, measure latency only")
	)
	flag.Parse()

	switch {
	case *loaddrive != "":
		os.Exit(runLoadDrive(*loaddrive, *sourcePath, *duration, *concurrency, *mutateEvery, *omitTable))
	case *smoke != "":
		os.Exit(runSmoke(*smoke, *sourcePath))
	}

	if *lakeDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	l, err := boot.OpenLake(boot.LakeOptions{
		Dir:           *lakeDir,
		StoreDir:      *storeDir,
		MaxResidentMB: *maxResMB,
	}, warnLine)
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Discovery.Tau = *tau
	cfg.Discovery.MaxCandidates = *maxCands
	cfg.Discovery.FirstStageTopK = *topK
	if *strategy != "" {
		strat, err := discovery.ParseStrategy(*strategy)
		if err != nil {
			fatal(err)
		}
		cfg.Discovery.Strategy = strat
	}
	cfg.Discovery.SemanticTau = *semTau
	if *vectors != "" {
		emb, err := embed.LoadVectorFile(*vectors)
		if err != nil {
			fatal(err)
		}
		cfg.Discovery.Embedder = emb
	}
	session := core.NewReclaimer(l, cfg)
	if *indexDir != "" {
		out, err := boot.AdoptIndexes(session, *indexDir, warnLine)
		if err != nil {
			fatal(err)
		}
		switch out.Action {
		case "caught_up":
			fmt.Printf("gentd: indexes at %s caught up (+%d tables) and saved\n", *indexDir, out.Added)
		case "loaded":
			fmt.Printf("gentd: indexes loaded from %s\n", *indexDir)
		default:
			fmt.Printf("gentd: indexes built and saved to %s\n", *indexDir)
		}
	}

	srv := server.New(session, server.Config{
		Workers:        *workers,
		Queue:          *queue,
		RequestTimeout: *reqTimeout,
		CacheBytes:     int64(*cacheMB) << 20,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	snap := l.Snapshot()
	fmt.Printf("gentd: serving %d tables at %s on %s\n",
		snap.Len(), snap.Epoch(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fatal(err)
	case s := <-sig:
		fmt.Printf("gentd: %v, draining\n", s)
	}

	// Drain first — health goes 503, new work is refused, in-flight requests
	// finish — then close the listener; Shutdown has nothing left to wait for.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gentd: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gentd: shutdown: %v\n", err)
	}
	fmt.Println("gentd: drained, bye")
}

// runLoadDrive is the -loaddrive client mode.
func runLoadDrive(base, sourcePath string, dur time.Duration, conc, mutateEvery int, omit bool) int {
	src, err := loadSource(sourcePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gentd: %v\n", err)
		return 1
	}
	c := client.New(base, nil)
	var opts *server.ReclaimOptions
	if omit {
		opts = &server.ReclaimOptions{OmitTable: true}
	}
	fmt.Printf("gentd: driving %s for %s with %d workers\n", base, dur, conc)
	rep, err := c.Drive(context.Background(), []*table.Table{src}, client.DriveOptions{
		Concurrency: conc,
		Duration:    dur,
		Options:     opts,
		MutateEvery: mutateEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gentd: %v\n", err)
		return 1
	}
	fmt.Printf("requests=%d errors=%d shed=%d cache_hits=%d mutations=%d\n",
		rep.Requests, rep.Errors, rep.Shed, rep.CacheHits, rep.Mutations)
	fmt.Printf("throughput=%.1f req/s p50=%s p95=%s p99=%s max=%s\n",
		rep.Throughput, rep.P50.Round(time.Microsecond), rep.P95.Round(time.Microsecond),
		rep.P99.Round(time.Microsecond), rep.Max.Round(time.Microsecond))
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

// runSmoke asserts the serving contract against a live server: health, a
// cold query (cache miss), the identical query again (cache hit, observable
// both in the X-Gent-Cache header and the /metrics counter), an Apply rolling
// the epoch, and the query once more (miss again — the bump invalidated the
// cache). Any violation is a non-zero exit with a line saying which.
func runSmoke(base, sourcePath string) int {
	src, err := loadSource(sourcePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gentd: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(base, nil)

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "gentd: smoke FAIL: "+format+"\n", args...)
		return 1
	}

	if err := c.Health(ctx); err != nil {
		return fail("health: %v", err)
	}
	stats, err := c.Stats(ctx, false)
	if err != nil {
		return fail("stats: %v", err)
	}
	fmt.Printf("smoke: server at %s, %d tables\n", stats.Epoch, stats.Tables)

	r1, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		return fail("cold reclaim: %v", err)
	}
	if r1.Cached {
		return fail("cold reclaim reported a cache hit")
	}
	fmt.Printf("smoke: cold query at %s: EIS=%.3f (miss, as expected)\n", r1.Epoch, r1.Metrics.EIS)

	r2, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		return fail("warm reclaim: %v", err)
	}
	if !r2.Cached {
		return fail("repeated query was not served from the result cache")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		return fail("metrics: %v", err)
	}
	if hits := m["gentd_result_cache_hits_total"]; hits < 1 {
		return fail("metrics report %g cache hits after a hit", hits)
	}
	fmt.Printf("smoke: repeated query served from cache (hits=%g)\n", m["gentd_result_cache_hits_total"])

	churn := src.Clone()
	churn.Name = "smoke_churn"
	ar, err := c.Apply(ctx, client.Put(churn))
	if err != nil {
		return fail("apply: %v", err)
	}
	if ar.EpochSeq <= r2.EpochSeq {
		return fail("apply did not advance the epoch (%s -> %s)", r2.Epoch, ar.Epoch)
	}
	fmt.Printf("smoke: apply rolled the epoch to %s (%d tables)\n", ar.Epoch, ar.Tables)

	r3, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		return fail("post-apply reclaim: %v", err)
	}
	if r3.Cached {
		return fail("query after an epoch bump was served from the stale cache")
	}
	if r3.EpochSeq != ar.EpochSeq {
		return fail("post-apply query pinned epoch %s, want %s", r3.Epoch, ar.Epoch)
	}
	if _, err := c.Apply(ctx, client.Drop("smoke_churn")); err != nil {
		return fail("cleanup drop: %v", err)
	}
	fmt.Println("smoke: epoch bump invalidated the cache; all checks passed")
	return 0
}

func loadSource(path string) (*table.Table, error) {
	if path == "" {
		return nil, errors.New("-source is required in client modes")
	}
	return table.LoadCSVFile(path)
}

func warnLine(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "gentd: ") {
		msg = "gentd: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
