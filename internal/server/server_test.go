package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/server"
	"gent/internal/server/client"
	"gent/internal/table"
)

// scenario builds the vertical-partition fixture: a keyed source whose clean
// partitions, plus noise, live in the lake.
func scenario() (*table.Table, *lake.Lake) {
	src := table.New("people", "pid", "name", "city", "salary")
	src.Key = []int{0}
	for i := 0; i < 12; i++ {
		src.AddRow(
			table.S(fmt.Sprintf("P%03d", i)),
			table.S(fmt.Sprintf("name-%d", i)),
			table.S(fmt.Sprintf("city-%d", i%4)),
			table.N(float64(1000+i*10)),
		)
	}
	l := lake.New()
	left := src.Project("pid", "name", "city")
	left.Name = "hr_names"
	left.Key = nil
	right := src.Project("pid", "salary")
	right.Name = "hr_salaries"
	right.Key = nil
	noise := table.New("noise", "a", "b")
	noise.AddRow(table.S("x"), table.S("y"))
	laketest.Add(l, left, right, noise)
	return src, l
}

// startServer serves the scenario over a loopback listener and returns the
// source, the server (for Drain and session access), and a typed client.
func startServer(t testing.TB, cfg server.Config) (*table.Table, *server.Server, *client.Client) {
	t.Helper()
	src, l := scenario()
	srv := server.New(core.NewReclaimer(l, core.DefaultConfig()), cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return src, srv, client.New(hs.URL, hs.Client())
}

// TestServerReclaimCacheLifecycle walks the serving contract end to end over
// a real connection: cold query misses, identical query hits (header and
// /metrics agree), a query carrying the options of the retired semantic
// discovery channel is served the default answer, Apply bumps the epoch and
// invalidates, the next query misses again and pins the new epoch.
func TestServerReclaimCacheLifecycle(t *testing.T) {
	src, srv, c := startServer(t, server.Config{})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	r1, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		t.Fatalf("cold reclaim: %v", err)
	}
	if r1.Cached {
		t.Fatal("cold query reported a cache hit")
	}
	if !r1.Metrics.Perfect {
		t.Errorf("scenario not perfectly reclaimed: %+v", r1.Metrics)
	}
	rt, err := r1.Table()
	if err != nil || rt == nil {
		t.Fatalf("reclaimed table did not round-trip: %v", err)
	}
	if rt.NumRows() != 12 {
		t.Errorf("reclaimed %d rows, want 12", rt.NumRows())
	}

	r2, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		t.Fatalf("warm reclaim: %v", err)
	}
	if !r2.Cached {
		t.Fatal("repeated query not served from the result cache")
	}
	if r2.Epoch != r1.Epoch {
		t.Fatalf("cached result at %s, want %s", r2.Epoch, r1.Epoch)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["gentd_result_cache_hits_total"] != 1 {
		t.Errorf("metrics hits = %g, want 1", m["gentd_result_cache_hits_total"])
	}

	// An older client still sends "strategy" and "semantic_tau". The
	// decoder ignores unknown fields, so the request asks the default
	// question and gets the default answer, from the default's cache entry.
	srcJSON, err := json.Marshal(server.EncodeTable(src))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"source": %s, "options": {"strategy": "hybrid", "semantic_tau": 0.6}}`, srcJSON)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reclaim", strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Gent-Cache") != "hit" {
		t.Fatalf("hybrid-strategy request: status %d, cache %q; want 200 from the default's entry",
			rec.Code, rec.Header().Get("X-Gent-Cache"))
	}
	var legacy server.ReclaimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &legacy); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, r1.ReclaimResponse) {
		t.Fatalf("hybrid-strategy request answered %+v, want the default answer %+v", legacy, r1.ReclaimResponse)
	}

	// Apply rolls the epoch; the cache must not survive it.
	extra := table.New("extra", "k", "v")
	extra.AddRow(table.S("a"), table.S("b"))
	ar, err := c.Apply(ctx, client.Put(extra))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if ar.EpochSeq <= r1.EpochSeq {
		t.Fatalf("apply epoch %s did not advance past %s", ar.Epoch, r1.Epoch)
	}
	if ar.Tables != 4 {
		t.Errorf("apply reports %d tables, want 4", ar.Tables)
	}

	r3, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		t.Fatalf("post-apply reclaim: %v", err)
	}
	if r3.Cached {
		t.Fatal("query after the epoch bump served from the stale cache")
	}
	if r3.EpochSeq != ar.EpochSeq {
		t.Fatalf("post-apply query pinned %s, want %s", r3.Epoch, ar.Epoch)
	}

	st, err := c.Stats(ctx, true)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.EpochSeq != ar.EpochSeq || st.Tables != 4 || st.Draining {
		t.Errorf("stats = %+v, want epoch %d, 4 tables, not draining", st, ar.EpochSeq)
	}
	if st.Cache.Invalidations == 0 {
		t.Error("stats show no cache invalidations after the epoch bump")
	}
	if len(st.TableFPs) != 4 || st.TableFPs["extra"] == 0 {
		t.Errorf("table fingerprints = %v, want 4 with extra set", st.TableFPs)
	}
}

// TestServerTraverseCounters: the traversal engine's scored/pruned work
// counters surface at /metrics, accumulate only when the pipeline actually
// runs (a cache hit adds nothing), and keep climbing across distinct queries.
func TestServerTraverseCounters(t *testing.T) {
	src, _, c := startServer(t, server.Config{})
	ctx := context.Background()

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, k := range []string{"gentd_traverse_candidates_scored_total", "gentd_traverse_candidates_pruned_total"} {
		if v, ok := m[k]; !ok || v != 0 {
			t.Errorf("before any query, %s = %g (present %v), want 0", k, v, ok)
		}
	}

	if _, err := c.Reclaim(ctx, src, nil); err != nil {
		t.Fatalf("cold reclaim: %v", err)
	}
	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	scored, pruned := m["gentd_traverse_candidates_scored_total"], m["gentd_traverse_candidates_pruned_total"]
	// The scenario discovers candidates and traverses them: at minimum every
	// candidate was exact-scored once for the start-table scan.
	if scored < 1 {
		t.Fatalf("after a cold reclaim, scored = %g, want >= 1", scored)
	}
	if pruned < 0 {
		t.Fatalf("pruned = %g, want >= 0", pruned)
	}

	// A cache hit serves without running the pipeline: no counter movement.
	r, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		t.Fatalf("warm reclaim: %v", err)
	}
	if !r.Cached {
		t.Fatal("repeat query not served from cache")
	}
	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["gentd_traverse_candidates_scored_total"] != scored || m["gentd_traverse_candidates_pruned_total"] != pruned {
		t.Errorf("cache hit moved traverse counters: (%g, %g) -> (%g, %g)", scored, pruned,
			m["gentd_traverse_candidates_scored_total"], m["gentd_traverse_candidates_pruned_total"])
	}

	// A different source runs the pipeline again and accumulates.
	other := src.Project("pid", "name", "city")
	other.Name = "people_slim"
	other.Key = []int{0}
	if _, err := c.Reclaim(ctx, other, nil); err != nil {
		t.Fatalf("second reclaim: %v", err)
	}
	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["gentd_traverse_candidates_scored_total"] <= scored {
		t.Errorf("second query did not accumulate: scored %g -> %g", scored,
			m["gentd_traverse_candidates_scored_total"])
	}
}

// TestServerErrorRoundTrip: pipeline failures cross the wire as their mapped
// statuses, and the client's errors.Is still matches the in-process
// sentinels.
func TestServerErrorRoundTrip(t *testing.T) {
	_, _, c := startServer(t, server.Config{})
	ctx := context.Background()

	// A source with no minable key (duplicate rows) → 422 no_key.
	dup := table.New("dups", "a", "b")
	dup.AddRow(table.S("x"), table.S("y"))
	dup.AddRow(table.S("x"), table.S("y"))
	_, err := c.Reclaim(ctx, dup, nil)
	var cerr *client.Error
	if !errors.As(err, &cerr) || cerr.Status != 422 || cerr.Code != "no_key" {
		t.Fatalf("keyless reclaim err = %v, want 422 no_key", err)
	}
	if !errors.Is(err, core.ErrNoKey) {
		t.Error("wire error does not match core.ErrNoKey")
	}
	if cerr.Phase != core.PhaseSource || cerr.Source != "dups" {
		t.Errorf("wire error phase/source = %q/%q, want source/dups", cerr.Phase, cerr.Source)
	}
	if n := strings.Count(err.Error(), `source "dups"`); n != 1 {
		t.Errorf("client error names the source %d times, want once: %v", n, err)
	}

	// Disjoint values under require_candidates → 422 no_candidates.
	alien := table.New("alien", "q", "w")
	alien.Key = []int{0}
	alien.AddRow(table.S("zzz-1"), table.S("zzz-2"))
	alien.AddRow(table.S("zzz-3"), table.S("zzz-4"))
	_, err = c.Reclaim(ctx, alien, &server.ReclaimOptions{RequireCandidates: true})
	if !errors.Is(err, core.ErrNoCandidates) {
		t.Fatalf("disjoint reclaim err = %v, want ErrNoCandidates", err)
	}

	// A mutation batch that cannot apply (rename of a missing table) → 400
	// bad_mutation, and the lake is untouched.
	_, err = c.Apply(ctx, client.Rename("no_such_table", "elsewhere"))
	if !errors.Is(err, lake.ErrBadMutation) {
		t.Fatalf("bad apply err = %v, want ErrBadMutation", err)
	}
	if !errors.As(err, &cerr) || cerr.Status != 400 {
		t.Fatalf("bad apply status = %v, want 400", err)
	}

	// A malformed wire op is a 400 with no sentinel.
	_, err = c.Apply(ctx, server.MutationJSON{Op: "truncate"})
	if !errors.As(err, &cerr) || cerr.Status != 400 {
		t.Fatalf("unknown op err = %v, want 400", err)
	}
}

// TestServerClampsOversizedTimeout: a timeout_ms too large to convert to a
// Duration is clamped to the server's maximum, not overflowed into an
// already-expired deadline.
func TestServerClampsOversizedTimeout(t *testing.T) {
	for _, ms := range []int64{1 << 62, 1e13, math.MaxInt64} {
		src, _, c := startServer(t, server.Config{})
		if _, err := c.Reclaim(context.Background(), src, &server.ReclaimOptions{TimeoutMS: ms}); err != nil {
			t.Errorf("timeout_ms %d: %v, want 200", ms, err)
		}
	}
}

// TestServerBatchAndStream: the batch endpoint answers in input order with
// per-item failures; the stream endpoint delivers the same items as NDJSON
// in completion order.
func TestServerBatchAndStream(t *testing.T) {
	src, _, c := startServer(t, server.Config{})
	ctx := context.Background()

	dup := table.New("dups", "a", "b")
	dup.AddRow(table.S("x"), table.S("y"))
	dup.AddRow(table.S("x"), table.S("y"))
	srcs := []*table.Table{src, dup, src.Clone()}

	items, err := c.ReclaimBatch(ctx, srcs, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(items) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d carries index %d — batch must answer in input order", i, it.Index)
		}
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Errorf("clean sources failed: %v / %v", items[0].Err, items[2].Err)
	}
	if !errors.Is(items[1].Err, core.ErrNoKey) {
		t.Errorf("keyless batch item err = %v, want ErrNoKey", items[1].Err)
	}

	got := map[int]bool{}
	err = c.ReclaimStream(ctx, srcs, &server.ReclaimOptions{OmitTable: true}, func(it client.Item) bool {
		got[it.Index] = true
		if it.Result != nil && it.Result.Reclaimed != nil {
			t.Error("omit_table stream item carried rows")
		}
		return true
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("stream delivered %d items, want 3", len(got))
	}

	// Early stop: the client consuming one item and bailing must not error.
	n := 0
	err = c.ReclaimStream(ctx, srcs, nil, func(client.Item) bool {
		n++
		return false
	})
	if err != nil || n != 1 {
		t.Fatalf("early-stop stream: n=%d err=%v", n, err)
	}
}

// TestServerIndexSaveLoad: indexes saved by one server are adopted as-is by
// a fresh session over the same lake — the crash-restart path: index once,
// restart, serve without rebuilding — and rebuilt once the lake has gained a
// table since the save. The wire answer names exactly what happened.
func TestServerIndexSaveLoad(t *testing.T) {
	src, l := scenario()
	ctx := context.Background()
	dir := t.TempDir()

	srv1 := server.New(core.NewReclaimer(l, core.DefaultConfig()), server.Config{})
	hs1 := httptest.NewServer(srv1.Handler())
	defer hs1.Close()
	sr, err := client.New(hs1.URL, hs1.Client()).SaveIndexes(ctx, dir)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if sr.Action != "saved" || sr.Epoch == "" {
		t.Fatalf("save = %+v", sr)
	}

	// A restarted server: new session, same lake, same epoch.
	srv2 := server.New(core.NewReclaimer(l, core.DefaultConfig()), server.Config{})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	c2 := client.New(hs2.URL, hs2.Client())
	lr, err := c2.LoadIndexes(ctx, dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if lr.Action != "loaded" {
		t.Fatalf("load action = %q, want loaded", lr.Action)
	}
	if _, err := c2.Reclaim(ctx, src, nil); err != nil {
		t.Fatalf("reclaim after index load: %v", err)
	}

	// The lake gains a table; the next start's load must rebuild.
	grown := table.New("hr_offices", "pid", "office")
	grown.AddRow(table.S("P000"), table.S("office-0"))
	laketest.Add(l, grown)
	srv3 := server.New(core.NewReclaimer(l, core.DefaultConfig()), server.Config{})
	hs3 := httptest.NewServer(srv3.Handler())
	defer hs3.Close()
	resp, err := hs3.Client().Post(hs3.URL+"/v1/index/load", "application/json", strings.NewReader(fmt.Sprintf(`{"dir":%q}`, dir)))
	if err != nil {
		t.Fatalf("load over the grown lake: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode load response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || body["action"] != "built" {
		t.Fatalf("load over the grown lake: status %d, body %v; want 200 and action built", resp.StatusCode, body)
	}
	if _, ok := body["added"]; ok {
		t.Fatalf("load response carries an added key: %v", body)
	}
}

// TestServerConcurrentQueriesRacingApply drives queries and catalog
// mutations through the HTTP surface simultaneously under -race: every
// response must be a valid result pinned to some epoch the lake actually
// held, cache hits included, while Apply rolls the lake forward underneath.
func TestServerConcurrentQueriesRacingApply(t *testing.T) {
	src, srv, c := startServer(t, server.Config{})
	ctx := context.Background()
	start := srv.Session().Lake().Epoch().Seq

	const queriers, rounds, mutations = 4, 6, 8
	var wg sync.WaitGroup
	errCh := make(chan error, queriers*rounds+mutations)
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := c.Reclaim(ctx, src, nil)
				if err != nil {
					errCh <- fmt.Errorf("reclaim: %w", err)
					return
				}
				if res.EpochSeq > start+uint64(mutations) {
					errCh <- fmt.Errorf("result pinned impossible epoch %s", res.Epoch)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			churn := table.New(fmt.Sprintf("churn_%d", i), "k", "v")
			churn.AddRow(table.S(fmt.Sprintf("ck-%d", i)), table.S("cv"))
			if _, err := c.Apply(ctx, client.Put(churn)); err != nil {
				errCh <- fmt.Errorf("apply %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The run must end where the mutations left the lake, and a fresh query
	// both pins that epoch and caches under it.
	final := srv.Session().Lake().Epoch()
	if final.Seq != start+mutations {
		t.Fatalf("final epoch %s, want seq %d", final, start+mutations)
	}
	r, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.EpochSeq != final.Seq {
		t.Fatalf("post-race query pinned %s, want %s", r.Epoch, final)
	}
	r2, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.EpochSeq != final.Seq {
		t.Fatalf("post-race repeat: cached=%v epoch=%s, want hit at %s", r2.Cached, r2.Epoch, final)
	}
}

// inProcess is an http.RoundTripper that serves each request straight from
// a handler, so concurrent clients contend on the handler itself rather than
// on loopback sockets.
type inProcess struct{ h http.Handler }

func (p inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestServerConcurrentApplyReportsItsEpoch: concurrent applies each Put one
// fresh table, so the lake at epoch seq s holds exactly base + (s − base seq)
// tables. Every response must report the table count of the epoch it names,
// not of whatever epoch a racing apply has since published. The race is a
// scheduling accident, so the run is long enough to provoke it reliably:
// without the fix, 8 × 100 applies on 2 CPUs mis-report 10–50 of them.
func TestServerConcurrentApplyReportsItsEpoch(t *testing.T) {
	_, l := scenario()
	srv := server.New(core.NewReclaimer(l, core.DefaultConfig()), server.Config{})
	ctx := context.Background()
	base := l.Snapshot()
	baseTables, baseSeq := base.Len(), base.Epoch().Seq

	const clients, applies = 8, 100
	var wg sync.WaitGroup
	errCh := make(chan error, clients*applies)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New("http://gentd", &http.Client{Transport: inProcess{srv.Handler()}})
			for i := 0; i < applies; i++ {
				fresh := table.New(fmt.Sprintf("fresh_%d_%d", w, i), "k", "v")
				fresh.AddRow(table.S(fmt.Sprintf("fk-%d-%d", w, i)), table.S("fv"))
				ar, err := c.Apply(ctx, client.Put(fresh))
				if err != nil {
					errCh <- fmt.Errorf("apply: %w", err)
					return
				}
				if want := baseTables + int(ar.EpochSeq-baseSeq); ar.Tables != want {
					errCh <- fmt.Errorf("apply at %s reports %d tables, want %d", ar.Epoch, ar.Tables, want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := l.Snapshot().Len(); got != baseTables+clients*applies {
		t.Fatalf("lake holds %d tables after the run, want %d", got, baseTables+clients*applies)
	}
}

// TestServerDrainOverHTTP: Drain flips the HTTP surface — health 503, new
// reclaims refused with the draining code — end to end.
func TestServerDrainOverHTTP(t *testing.T) {
	src, srv, c := startServer(t, server.Config{})
	ctx := context.Background()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Health(ctx); err == nil {
		t.Fatal("health still 200 after drain")
	}
	_, err := c.Reclaim(ctx, src, nil)
	var cerr *client.Error
	if !errors.As(err, &cerr) || cerr.Status != 503 || cerr.Code != "draining" {
		t.Fatalf("reclaim while draining = %v, want 503 draining", err)
	}
	if !errors.Is(err, server.ErrDraining) {
		t.Error("wire error does not match server.ErrDraining")
	}
	// Stats stay readable for operators during the drain.
	st, err := c.Stats(ctx, false)
	if err != nil || !st.Draining {
		t.Fatalf("stats during drain: %+v, %v", st, err)
	}
}
