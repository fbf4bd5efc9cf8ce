package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/server"
	"gent/internal/server/client"
	"gent/internal/table"
)

// churn is the service path: a TP-TR Small core in open-data volume behind
// server.New(session, cfg).Handler() on a loopback listener, one
// client.Client connection. One cycle is
//
//	Apply (Put b spare tables + Drop b resident ones)
//	→ one sweep of every source  (all cache misses at the new epoch: the
//	  primary series; the first one also pays the substrates' delta catch-up)
//	→ two sweeps                 (all cache hits: the aux series)
//
// A pass is several cycles (scale.churnCycles), so the collection the runner
// forces before every pass is paid once per several Applies. The open-data
// tables rotate through the lake in a fixed, seeded order, so the cycle list
// is the same for a seed however many cycles a run fits in.
type churn struct {
	// inputs
	lakeDir string
	srcs    []*table.Table
	rot     *rotation
	conf    core.Config
	batch   int
	cycles  int
	// in0 is the seeded drop order of the resident open-data tables and out0
	// the spare tables waiting to be put; tables maps every open-data name to
	// its table so a dropped one can come back later.
	in0    []string
	out0   []string
	tables map[string]*table.Table

	// state
	in, out []string
	rotated int // rotate calls since the lake was loaded
	lake    *lake.Lake
	session *core.Reclaimer
	hs      *http.Server
	served  sync.WaitGroup
	cl      *client.Client
	base    string
	// mirror is the traced run's in-process copy of the lake and substrates,
	// taken through the same mutations by direct layer calls.
	mirror    *lake.Lake
	mirrorIx  *index.IndexSet
	mirrorSes *core.Reclaimer
}

func newChurn() workload { return &churn{} }

func (w *churn) name() string { return "gentd_churn" }

func (w *churn) generate(in inputs, dir string) error {
	sc, seed := in.scale, in.seed
	b, err := buildSmall(sc)
	if err != nil {
		return err
	}
	if len(b.Sources) == 0 {
		return fmt.Errorf("corpus has no sources")
	}
	open, err := addOpenData(b.Lake, sc.churnOpen+sc.churnPool, corpusSeed+3)
	if err != nil {
		return err
	}
	snap := b.Lake.Snapshot()
	w.tables = make(map[string]*table.Table, len(open))
	for _, n := range open {
		w.tables[n] = snap.Get(n)
	}
	rand.New(rand.NewSource(seed+5)).Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
	w.out0, w.in0 = open[:sc.churnPool], open[sc.churnPool:]
	drops := make([]lake.Mutation, len(w.out0))
	for i, n := range w.out0 {
		drops[i] = lake.Drop(n)
	}
	if _, err := b.Lake.Apply(context.Background(), drops...); err != nil {
		return err
	}
	w.lakeDir = filepath.Join(dir, "lake")
	w.srcs, w.rot = b.Sources, newRotation(b.Sources, seed)
	w.conf, w.batch, w.cycles = core.DefaultConfig(), sc.churnBatch, sc.churnCycles
	if err := b.Lake.SaveDir(w.lakeDir); err != nil {
		return fmt.Errorf("writing lake: %w", err)
	}
	return nil
}

func (w *churn) setUp(ctx context.Context) error {
	var err error
	if w.lake, w.session, err = openSession(w.lakeDir, w.conf); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: server.New(w.session, server.Config{}).Handler()}
	w.served.Add(1)
	go func(hs *http.Server) {
		defer w.served.Done()
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after tearDown's Close
	}(w.hs)
	w.base = "http://" + ln.Addr().String()
	// One connection: the closed-loop client never has two requests open.
	w.cl = client.New(w.base, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	w.resetRotation()
	return w.cl.Health(ctx)
}

func (w *churn) tearDown() {
	if w.hs != nil {
		w.hs.Close()
		w.served.Wait()
	}
	w.hs, w.cl, w.lake, w.session = nil, nil, nil, nil
	w.mirror, w.mirrorIx, w.mirrorSes = nil, nil, nil
}

// resetRotation returns the rotation to the state the lake on disk is in.
func (w *churn) resetRotation() {
	w.in, w.out, w.rotated = append([]string(nil), w.in0...), append([]string(nil), w.out0...), 0
}

// rotate advances the rotation by one cycle and returns the tables to put
// and the names to drop.
func (w *churn) rotate() (puts []*table.Table, drops []string) {
	w.rotated++
	b := min(w.batch, len(w.in), len(w.out))
	for _, n := range w.out[:b] {
		puts = append(puts, w.tables[n])
	}
	drops = append(drops, w.in[:b]...)
	w.in = append(w.in[b:], w.out[:b]...)
	w.out = append(w.out[b:], drops...)
	return puts, drops
}

// wireDigest hashes a reclaimed table in wire form (decoding it back into a
// table.Table would cost more than the cache hit being measured).
func wireDigest(t *server.TableJSON) uint64 {
	h := fnv.New64a()
	if t == nil {
		return 0
	}
	for _, c := range t.Cols {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	for _, r := range t.Rows {
		h.Write([]byte{1})
		for _, c := range r {
			if c == nil {
				h.Write([]byte{2})
				continue
			}
			h.Write([]byte{3})
			h.Write([]byte(*c))
		}
	}
	return h.Sum64()
}

// cycleTimes is what one cycle did and what its requests took: the rotation
// step it applied, per miss the client-observed latency and the pipeline time
// the response itself reported, and the Apply.
type cycleTimes struct {
	puts           []*table.Table
	drops          []string
	miss, pipeline []time.Duration
	apply          time.Duration
}

// sweep requests every source once and records each under class. wantCached
// is what X-Gent-Cache must say.
func (w *churn) sweep(ctx context.Context, rec *recorder, class string, wantCached bool, epoch uint64, ct *cycleTimes) {
	for _, i := range w.rot.next() {
		src := w.srcs[i]
		t0 := time.Now()
		res, err := w.cl.Reclaim(ctx, src, nil)
		d := time.Since(t0)
		rec.observe(class, d)
		if err != nil {
			rec.fail("%s %s: %v", class, src.Name, err)
			continue
		}
		if res.Cached != wantCached || res.EpochSeq != epoch {
			rec.fail("%s %s: cached=%v epoch=%d, want cached=%v epoch=%d",
				class, src.Name, res.Cached, res.EpochSeq, wantCached, epoch)
			continue
		}
		if !wantCached {
			// What the traced run replays in-process is the server's
			// pipeline, so that — not the wire latency — is its mirror.
			total := time.Duration(res.TimingMS.Total * float64(time.Millisecond))
			rec.replayable(total, total)
			ct.miss, ct.pipeline = append(ct.miss, d), append(ct.pipeline, total)
		}
		rec.output(fmt.Sprintf("%s@%d", src.Name, epoch), quality{eis: res.Metrics.EIS, recall: res.Metrics.Recall,
			precision: res.Metrics.Precision, digest: wireDigest(res.Reclaimed)})
	}
}

// applyMutations renders one rotation step as wire mutations.
func applyMutations(puts []*table.Table, drops []string) []server.MutationJSON {
	muts := make([]server.MutationJSON, 0, len(puts)+len(drops))
	for _, t := range puts {
		muts = append(muts, client.Put(t))
	}
	for _, n := range drops {
		muts = append(muts, client.Drop(n))
	}
	return muts
}

// cycle is one Apply and its three sweeps over HTTP.
func (w *churn) cycle(ctx context.Context, rec *recorder) (cycleTimes, error) {
	var ct cycleTimes
	ct.puts, ct.drops = w.rotate()
	muts := applyMutations(ct.puts, ct.drops)
	t0 := time.Now()
	resp, err := w.cl.Apply(ctx, muts...)
	ct.apply = time.Since(t0)
	rec.observe(opApply, ct.apply)
	if err != nil {
		return ct, fmt.Errorf("apply: %w", err)
	}
	w.sweep(ctx, rec, opPrimary, false, resp.EpochSeq, &ct)
	w.sweep(ctx, rec, opAux, true, resp.EpochSeq, &ct)
	w.sweep(ctx, rec, opAux, true, resp.EpochSeq, &ct)
	return ct, nil
}

func (w *churn) pass(ctx context.Context, rec *recorder) error {
	for i := 0; i < w.cycles; i++ {
		if _, err := w.cycle(ctx, rec); err != nil {
			return err
		}
	}
	return nil
}

// setupSpans also builds the mirror the traced passes mutate.
func (w *churn) setupSpans(ctx context.Context, tr *tracer, lc layerCounts) error {
	l, ix, err := csvSetupSpans(tr, lc, w.lakeDir, w.conf)
	if err != nil {
		return err
	}
	// The HTTP side has already run cycles (warm-up, reference passes); the
	// mirror replays them so both lakes hold the same tables from here on.
	done := w.rotated
	w.resetRotation()
	for w.rotated < done {
		puts, drops := w.rotate()
		if ix, err = applyMirror(ctx, nil, l, ix, puts, drops); err != nil {
			return err
		}
	}
	w.mirror, w.mirrorIx = l, ix
	w.mirrorSes = core.NewReclaimer(l, w.conf)
	return nil
}

// applyMirror is one cycle's write path by direct layer calls: Lake.Apply,
// then the substrates' delta maintenance over the forms of lake.Diff —
// the catch-up a session performs lazily on the first query after an Apply.
func applyMirror(ctx context.Context, tr *tracer, l *lake.Lake, ix *index.IndexSet,
	puts []*table.Table, drops []string) (*index.IndexSet, error) {
	old := l.Snapshot()
	muts := make([]lake.Mutation, 0, len(puts)+len(drops))
	for _, t := range puts {
		// Through the wire codec, as the server's copy arrives.
		wt, err := server.DecodeTable(server.EncodeTable(t))
		if err != nil {
			return nil, err
		}
		muts = append(muts, lake.Put(wt))
	}
	for _, n := range drops {
		muts = append(muts, lake.Drop(n))
	}
	end := tr.begin("lake.apply")
	_, err := l.Apply(ctx, muts...)
	end()
	if err != nil {
		return nil, err
	}
	cur := l.Snapshot() //lint:allow snappin the snapshots on both sides of the Apply are what Diff compares
	end = tr.begin("index.delta")
	added, removed, ok := lake.Diff(old, cur)
	if !ok {
		end()
		return nil, fmt.Errorf("lake.Diff cannot bridge epochs %v → %v", old.Epoch(), cur.Epoch())
	}
	addForms, remForms := make([]*table.Interned, len(added)), make([]*table.Interned, len(removed))
	for i, t := range added {
		addForms[i] = cur.Interned(t.Name)
	}
	for i, t := range removed {
		remForms[i] = old.Interned(t.Name)
	}
	next := &index.IndexSet{Inverted: ix.Inverted.WithDelta(addForms, remForms),
		LSH: ix.LSH.WithDelta(addForms, remForms), Dict: ix.Dict}
	end()
	if next.Inverted == nil || next.LSH == nil {
		return nil, fmt.Errorf("substrates are not delta-maintainable")
	}
	return next, nil
}

func (w *churn) tracedPass(ctx context.Context, tr *tracer, lc layerCounts) error {
	rec := newRecorder()
	for i := 0; i < w.cycles; i++ {
		// The service side, timed from the client: overhead is what the
		// client saw beyond the pipeline time the response itself reports,
		// catch-up the first miss after the Apply against the median miss.
		ct, err := w.cycle(ctx, rec)
		if err != nil {
			return err
		}
		lat := make([]float64, len(ct.miss))
		for j, d := range ct.miss {
			lat[j] = ms(d)
			lc.add("server.overhead_ms", ms(d-ct.pipeline[j]))
			lc.add("server.overhead_ms.n", 1)
		}
		if len(lat) > 0 {
			lc.add("core.catchup_ms", lat[0]-median(lat))
			lc.add("core.catchup_ms.n", 1)
		}
		lc.add("server.apply_ms", ms(ct.apply))
		lc.add("server.apply_ms.n", 1)

		// The same cycle by direct layer calls on the mirror.
		end := tr.beginOp("apply")
		w.mirrorIx, err = applyMirror(ctx, tr, w.mirror, w.mirrorIx, ct.puts, ct.drops)
		end()
		if err != nil {
			return err
		}
		verify := w.mirrorSes
		if lc["ops"] > 0 {
			verify = nil // checked on the first traced cycle
		}
		for _, j := range w.rot.next() {
			if err := replayOp(ctx, tr, lc, w.mirror, w.mirrorIx.Inverted, w.srcs[j], w.conf, verify); err != nil {
				return err
			}
		}
	}
	if rec.failed > 0 {
		return fmt.Errorf("traced cycle: %s", rec.failures[0])
	}
	m, err := w.cl.Metrics(ctx)
	if err != nil {
		return err
	}
	hits, misses := m["gentd_result_cache_hits_total"], m["gentd_result_cache_misses_total"]
	if hits+misses > 0 {
		lc["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	lc["server.shed"] = m["gentd_shed_total"]
	return nil
}

// check adds the service's own oracle to the shared ones: a hit body must
// byte-equal the miss body it caches and carry the epoch of the Apply before
// it.
func (w *churn) check(ctx context.Context) (int, []string) {
	n, fails := checkSources(ctx, w.lake, w.session, w.conf, w.rot.sample3())
	resp, err := w.cl.Apply(ctx, applyMutations(w.rotate())...)
	if err != nil {
		return n + 1, append(fails, fmt.Sprintf("apply: %v", err))
	}
	for _, src := range w.rot.sample3() {
		n++
		miss, missHdr, err := w.rawReclaim(ctx, src)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", src.Name, err))
			continue
		}
		hit, hitHdr, err := w.rawReclaim(ctx, src)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", src.Name, err))
			continue
		}
		var decoded server.ReclaimResponse
		switch {
		case missHdr != "miss" || hitHdr != "hit":
			fails = append(fails, fmt.Sprintf("%s: X-Gent-Cache %q then %q, want miss then hit", src.Name, missHdr, hitHdr))
		case !bytes.Equal(miss, hit):
			fails = append(fails, fmt.Sprintf("%s: hit body differs from the miss body it caches", src.Name))
		case json.Unmarshal(hit, &decoded) != nil || decoded.EpochSeq != resp.EpochSeq:
			fails = append(fails, fmt.Sprintf("%s: hit carries epoch %d, lake is at %d", src.Name, decoded.EpochSeq, resp.EpochSeq))
		}
	}
	return n, fails
}

// rawReclaim posts one reclaim and returns the undecoded body and the
// X-Gent-Cache header.
func (w *churn) rawReclaim(ctx context.Context, src *table.Table) ([]byte, string, error) {
	body, err := json.Marshal(server.ReclaimRequest{Source: server.EncodeTable(src)})
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/reclaim", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, resp.Header.Get("X-Gent-Cache"), nil
}
