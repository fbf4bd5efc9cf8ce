package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/server/boot"
	"gent/internal/table"
)

// maxRequestBytes bounds a request body; tables bigger than this belong in
// the lake's own storage tier, not a POST.
const maxRequestBytes = 256 << 20

// instrument wraps a handler with request counting and latency observation.
// A handler panic is logged with its stack, counted in
// gentd_handler_panics_total and recorded under status 500. If nothing has
// gone out yet the client gets a 500; otherwise (a stream may already have
// answered 200 and sent lines) the response is aborted with
// http.ErrAbortHandler, so the client reads a broken body, not a short one
// that looks complete. http.ErrAbortHandler itself is re-panicked as is.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			p := recover()
			if p == nil {
				s.metrics.request(endpoint, rec.status, time.Since(start))
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			log.Printf("gentd: panic serving %s: %v\n%s", endpoint, p, debug.Stack())
			s.metrics.panicOne()
			s.metrics.request(endpoint, http.StatusInternalServerError, time.Since(start))
			if rec.wrote {
				panic(http.ErrAbortHandler)
			}
			s.writeError(rec, fmt.Errorf("internal error serving %s", endpoint))
		}()
		h(rec, r)
	}
}

// statusWriter records the status code a handler wrote and whether any
// header went out, forwarding Flush so the stream endpoint can push NDJSON
// lines through it.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status, w.wrote = code, true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// begin registers one unit of in-flight work unless the server is draining.
// Pairing every accepted request with end() is what lets Drain wait for the
// tail without racing new admissions.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) end() { s.inflight.Done() }

// retryAfter is the Retry-After hint on every 429, in seconds.
const retryAfter = "1"

// writeError renders err with its mapped status; 429 carries Retry-After.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := StatusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfter)
		s.metrics.shedOne()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(encodeError(err)) //nolint:errcheck // nothing to do about a failed error write
}

// decodeJSON reads one bounded JSON body: exactly one JSON value, with
// nothing but whitespace after it.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: data after the JSON value")
	}
	return nil
}

// writeBadRequest serves a malformed-payload failure as 400.
func writeBadRequest(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(&ErrorJSON{Error: err.Error(), Code: "bad_request"}) //nolint:errcheck
}

// requestCtx layers the per-request deadline over the connection context:
// the server maximum, clamped tighter by the client's timeout_ms. The two are
// compared in milliseconds, so an oversized timeout_ms cannot overflow the
// conversion to a Duration.
func (s *Server) requestCtx(r *http.Request, o *ReclaimOptions) (context.Context, context.CancelFunc) {
	t := s.cfg.RequestTimeout
	if o != nil && o.TimeoutMS > 0 && o.TimeoutMS < t.Milliseconds() {
		t = time.Duration(o.TimeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), t)
}

// queryConfig resolves wire options over the session's configuration — the
// one place that decides what a wire option means; the result cache keys on
// its output. The metrics observer layers under any session-configured one.
func (s *Server) queryConfig(o *ReclaimOptions) core.Config {
	cfg := s.session.Config()
	if o != nil {
		d := &cfg.Discovery
		if o.Tau > 0 {
			d.Tau = o.Tau
		}
		if o.MaxCandidates > 0 {
			d.MaxCandidates = o.MaxCandidates
		}
		switch {
		case o.FirstStageTopK > 0:
			d.FirstStageTopK = o.FirstStageTopK
		case o.FirstStageTopK < 0:
			d.FirstStageTopK = 0
		}
		if o.RequireCandidates {
			cfg.RequireCandidates = true
		}
	}
	cfg.Observer = core.TeeObserver(s.metrics.observer(), cfg.Observer)
	return cfg
}

// handleReclaim serves POST /v1/reclaim: one source, one result, fronted by
// the epoch-keyed result cache. X-Gent-Cache reports hit or miss.
func (s *Server) handleReclaim(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.writeError(w, ErrDraining)
		return
	}
	defer s.end()
	var req ReclaimRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	src, err := DecodeTable(req.Source)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	cfg := s.queryConfig(req.Options)
	ctx, cancel := s.requestCtx(r, req.Options)
	defer cancel()
	if err := s.admit.acquire(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.admit.release()

	// The cache key is the source's content fingerprint (what the bytes say)
	// folded with the resolved configuration (what question is being asked);
	// the epoch read here guards it (what catalog would answer). A hit is a
	// fully-formed response body — zero pipeline work.
	omit := req.Options != nil && req.Options.OmitTable
	key := cacheKey(table.Fingerprint(src), cfg, omit)
	epoch := s.session.Lake().Epoch()
	if body := s.cache.get(epoch, key); body != nil {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Gent-Cache", "hit")
		w.Header().Set("X-Gent-Epoch", epoch.String())
		w.Write(body) //nolint:errcheck
		return
	}

	res, err := s.session.WithConfig(cfg).ReclaimContext(ctx, src)
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, err := json.Marshal(EncodeResult(src.Name, res, omit))
	if err != nil {
		s.writeError(w, fmt.Errorf("encoding response: %w", err))
		return
	}
	// Keyed by the epoch the run actually pinned — not the one read above —
	// so a query that raced Apply can never plant its result under the new
	// catalog version (the cache refuses stale epochs at insert).
	s.cache.put(res.Epoch, key, body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gent-Cache", "miss")
	w.Header().Set("X-Gent-Epoch", res.Epoch.String())
	w.Write(body) //nolint:errcheck
}

// decodeBatch reads and materializes a stream request's sources.
func decodeBatch(w http.ResponseWriter, r *http.Request) (*BatchRequest, []*table.Table, bool) {
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBadRequest(w, err)
		return nil, nil, false
	}
	if len(req.Sources) == 0 {
		writeBadRequest(w, fmt.Errorf("batch has no sources"))
		return nil, nil, false
	}
	srcs := make([]*table.Table, len(req.Sources))
	for i, ws := range req.Sources {
		t, err := DecodeTable(ws)
		if err != nil {
			writeBadRequest(w, fmt.Errorf("source %d: %w", i, err))
			return nil, nil, false
		}
		srcs[i] = t
	}
	return &req, srcs, true
}

// batchWorkers sizes a batch's internal fan-out: the batch holds one
// admission slot, so its parallelism comes out of the slot pool's budget
// rather than multiplying it.
func (s *Server) batchWorkers(n int) int {
	w := s.cfg.Workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// handleStream serves POST /v1/reclaim/stream: NDJSON, one StreamItem per
// line in completion order, flushed as each source finishes — the wire form
// of ReclaimStream. A consumer closing the connection cancels the rest.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.writeError(w, ErrDraining)
		return
	}
	defer s.end()
	req, srcs, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	cfg := s.queryConfig(req.Options)
	ctx, cancel := s.requestCtx(r, req.Options)
	defer cancel()
	if err := s.admit.acquire(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.admit.release()

	omit := req.Options != nil && req.Options.OmitTable
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for item := range s.session.WithConfig(cfg).ReclaimStream(ctx, srcs, s.batchWorkers(len(srcs))) {
		if err := enc.Encode(encodeItem(item, omit)); err != nil {
			// The consumer went away; breaking cancels the remaining work.
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// encodeItem renders one stream item.
func encodeItem(item core.BatchItem, omit bool) StreamItem {
	out := StreamItem{Index: item.Index}
	if item.Err != nil {
		out.Error = encodeError(item.Err)
	} else if item.Result != nil {
		out.Result = EncodeResult(item.Source.Name, item.Result, omit)
	}
	return out
}

// handleApply serves POST /v1/lake/apply: one all-or-nothing mutation batch,
// one new epoch. Mutations bypass the admission gate — they are catalog
// bookkeeping, not pipeline work, and shedding writes behind a queue of
// reads would invert the priority — but they do count as in-flight work for
// the drain. The response's table count is read off the snapshot the batch
// published: applyMu keeps another apply from landing in between, which makes
// the (epoch, tables) pair exact whenever this server is the lake's only
// writer, as it is in gentd.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.writeError(w, ErrDraining)
		return
	}
	defer s.end()
	var req ApplyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	if len(req.Mutations) == 0 {
		writeBadRequest(w, fmt.Errorf("apply has no mutations"))
		return
	}
	muts := make([]lake.Mutation, 0, len(req.Mutations))
	for i, wm := range req.Mutations {
		m, err := DecodeMutation(wm)
		if err != nil {
			writeBadRequest(w, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		muts = append(muts, m)
	}
	l := s.session.Lake()
	s.applyMu.Lock()
	epoch, err := l.Apply(r.Context(), muts...)
	snap := l.Snapshot()
	s.applyMu.Unlock()
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ApplyResponse{ //nolint:errcheck
		Epoch:    epoch.String(),
		EpochSeq: epoch.Seq,
		Tables:   snap.Len(),
	})
}

// handleIndexSave serves POST /v1/index/save: build (or bring up to date) the
// session's substrates and persist them, epoch-stamped, under the given
// server-side directory.
func (s *Server) handleIndexSave(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.writeError(w, ErrDraining)
		return
	}
	defer s.end()
	var req IndexRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	if req.Dir == "" {
		writeBadRequest(w, fmt.Errorf("missing dir"))
		return
	}
	if err := s.admit.acquire(r.Context()); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.admit.release()
	ix := s.session.BuildIndexes()
	if err := ix.SaveDir(req.Dir); err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IndexResponse{Action: "saved", Epoch: ix.Epoch.String()}) //nolint:errcheck
}

// handleIndexLoad serves POST /v1/index/load: adopt a persisted index set —
// loaded when current, built and saved otherwise — through the same boot
// path cmd/gent's -index-dir uses.
func (s *Server) handleIndexLoad(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.writeError(w, ErrDraining)
		return
	}
	defer s.end()
	var req IndexRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	if req.Dir == "" {
		writeBadRequest(w, fmt.Errorf("missing dir"))
		return
	}
	if err := s.admit.acquire(r.Context()); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.admit.release()
	out, err := boot.AdoptIndexes(s.session, req.Dir, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IndexResponse{ //nolint:errcheck
		Action: out.Action,
		Epoch:  s.session.Lake().Epoch().String(),
	})
}

// handleStats serves GET /v1/stats. ?fps=1 additionally lists every table's
// content fingerprint at the current epoch (the snapshot already holds them;
// nothing is rescanned).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.session.Lake().Snapshot()
	resp := StatsResponse{
		Epoch:     snap.Epoch().String(),
		EpochSeq:  snap.Epoch().Seq,
		Tables:    snap.Len(),
		Draining:  s.Draining(),
		Admission: s.admit.stats(),
		Cache:     s.cache.snapshotStats(),
		Resident:  s.session.Lake().CacheStats(),
	}
	if r.URL.Query().Get("fps") == "1" {
		resp.TableFPs = make(map[string]uint64, snap.Len())
		for _, n := range snap.Names() {
			resp.TableFPs[n] = snap.Fingerprint(n)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// handleHealth serves GET /healthz: 200 while serving, 503 while draining
// (the signal a fronting balancer watches).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.session.Lake().Snapshot()
	resident := s.session.Lake().CacheStats()
	admission := s.admit.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.cache.snapshotStats(), map[string]float64{
		"gentd_epoch_seq":            float64(snap.Epoch().Seq),
		"gentd_lake_tables":          float64(snap.Len()),
		"gentd_resident_cache_bytes": float64(resident.ResidentBytes),
		// Every admitted request holds a slot, index save/load included.
		"gentd_inflight": float64(admission.Running),
		"gentd_queued":   float64(admission.Waiting),
	})
}
