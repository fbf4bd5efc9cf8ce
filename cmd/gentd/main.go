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
// Smoke mode checks a running server instead:
//
//	gentd -smoke http://host:8080 -source q.csv
//
// asserts the serving contract end to end (cache miss → hit → stream →
// epoch bump → invalidation → index save and load → rename) and
// exits non-zero on any violation. The index steps write a temporary
// directory the server must be able to reach, so point -smoke at a server on
// the same host. Load is measured by the gentd_churn workload of the bench
// command, not by gentd itself.
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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"gent/internal/core"
	"gent/internal/server"
	"gent/internal/server/boot"
	"gent/internal/server/client"
	"gent/internal/table"
)

func main() {
	var (
		shared     = boot.RegisterFlags(flag.CommandLine)
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent reclaim slots (0 = session traverse workers, else GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth beyond the slots (0 = 4x workers)")
		reqTimeout = flag.Duration("request-timeout", 60*time.Second, "maximum wall time per reclaim request")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		cacheMB    = flag.Int("cache-mb", 64, "result-cache byte budget in MiB (0 = default, negative = disabled)")
		smoke      = flag.String("smoke", "", "run the serving-contract smoke against a running gentd at this base URL instead of serving")
		sourcePath = flag.String("source", "", "source CSV for -smoke")
	)
	flag.Parse()

	if *smoke != "" {
		os.Exit(runSmoke(*smoke, *sourcePath))
	}
	if shared.Lake.Dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	l, err := boot.OpenLake(shared.Lake, boot.Stderr)
	if err != nil {
		fatal(err)
	}
	session := core.NewReclaimer(l, shared.Config())
	if shared.IndexDir != "" {
		out, err := boot.AdoptIndexes(session, shared.IndexDir, boot.Stderr)
		if err != nil {
			fatal(err)
		}
		fmt.Println("gentd: " + out.Message(shared.IndexDir))
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

// runSmoke asserts the serving contract against a live server: health, a
// cold query (cache miss) whose reclaimed rows decode with the source's
// columns, the identical query again (cache hit, observable both in the
// X-Gent-Cache header and the /metrics counter), the source twice as one
// stream, an Apply rolling the epoch, the query once more (miss
// again — the bump invalidated the cache), an index save and load, and a
// Rename. Any violation is a non-zero exit with a line saying which, and the
// table the smoke put is dropped again, under whichever name it holds,
// whichever way the smoke exits.
func runSmoke(base, sourcePath string) (code int) {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "gentd: smoke FAIL: "+format+"\n", args...)
		return 1
	}
	if sourcePath == "" {
		return fail("-source is required")
	}
	src, err := table.LoadCSVFile(sourcePath)
	if err != nil {
		return fail("source: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(base, nil)

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
	got, err := r1.Table()
	if err != nil {
		return fail("decoding the reclaimed table: %v", err)
	}
	if got == nil || !slices.Equal(got.Cols, src.Cols) {
		return fail("reclaimed table does not decode with the source's columns %v", src.Cols)
	}
	fmt.Printf("smoke: cold query at %s: EIS=%.3f, %d rows (miss, as expected)\n",
		r1.Epoch, r1.Metrics.EIS, len(got.Rows))

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

	if err := smokeStream(ctx, c, src, r1.Metrics.EIS); err != nil {
		return fail("%v", err)
	}
	fmt.Println("smoke: stream of two sources matches the single query")

	churnName := "smoke_churn"
	churn := src.Clone()
	churn.Name = churnName
	ar, err := c.Apply(ctx, client.Put(churn))
	if err != nil {
		return fail("apply: %v", err)
	}
	defer func() {
		// Its own context: the smoke's may be the reason it is exiting.
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		if _, err := c.Apply(dctx, client.Drop(churnName)); err != nil {
			code = fail("cleanup drop: %v", err)
		}
	}()
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
	fmt.Println("smoke: epoch bump invalidated the cache")

	if err := smokeIndexes(ctx, c, ar.Epoch); err != nil {
		return fail("%v", err)
	}
	fmt.Println("smoke: indexes saved; a load at an epoch already served rebuilt them")

	renamed := churnName + "_renamed"
	rr, err := c.Apply(ctx, client.Rename(churnName, renamed))
	if err != nil {
		return fail("rename: %v", err)
	}
	churnName = renamed
	if rr.EpochSeq <= ar.EpochSeq || rr.Tables != ar.Tables {
		return fail("rename moved the lake from %s (%d tables) to %s (%d tables)",
			ar.Epoch, ar.Tables, rr.Epoch, rr.Tables)
	}
	fmt.Printf("smoke: rename rolled the epoch to %s; all checks passed\n", rr.Epoch)
	return 0
}

// smokeStream reclaims the source twice as one stream: it must answer two
// items, every one with the single query's EIS.
func smokeStream(ctx context.Context, c *client.Client, src *table.Table, eis float64) error {
	pair := []*table.Table{src, src}
	var items []client.Item
	if err := c.ReclaimStream(ctx, pair, nil, func(it client.Item) bool {
		items = append(items, it)
		return true
	}); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if len(items) != len(pair) {
		return fmt.Errorf("stream answered %d items for %d sources", len(items), len(pair))
	}
	for _, it := range items {
		if it.Err != nil {
			return fmt.Errorf("stream item %d: %v", it.Index, it.Err)
		}
		if it.Result.Metrics.EIS != eis {
			return fmt.Errorf("stream item %d: EIS %v, the single query's %v", it.Index, it.Result.Metrics.EIS, eis)
		}
	}
	return nil
}

// smokeIndexes saves the session's indexes into a fresh directory and loads
// them back. The save builds the substrates at the current epoch, so the
// session has already served that epoch and the load must refuse the set
// and rebuild it (Reclaimer.UseIndexes' injection window).
func smokeIndexes(ctx context.Context, c *client.Client, epoch string) error {
	dir, err := os.MkdirTemp("", "gentd-smoke-idx-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	saved, err := c.SaveIndexes(ctx, dir)
	if err != nil {
		return fmt.Errorf("index save: %w", err)
	}
	if saved.Action != "saved" || saved.Epoch != epoch {
		return fmt.Errorf("index save answered %q at %s, want \"saved\" at %s", saved.Action, saved.Epoch, epoch)
	}
	loaded, err := c.LoadIndexes(ctx, dir)
	if err != nil {
		return fmt.Errorf("index load: %w", err)
	}
	if loaded.Action != "built" || loaded.Epoch != epoch {
		return fmt.Errorf("index load answered %q at %s, want \"built\" at %s", loaded.Action, loaded.Epoch, epoch)
	}
	return nil
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "gentd: ") {
		msg = "gentd: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
