// Package server is gentd: the network face of the reclamation engine.
//
// Everything a server needs was already library-internal — Reclaimer
// sessions with epoch-pinned RCU state, ReclaimStream, ctx deadlines at
// every phase, phase-tagged typed errors, ProgressObserver — and this
// package puts it on a port as HTTP/JSON:
//
//	POST /v1/reclaim         one source  → one result
//	POST /v1/reclaim/stream  many sources → NDJSON, completion order
//	POST /v1/lake/apply      Put/Drop/Rename → new epoch
//	POST /v1/index/save      persist the session's indexes to a directory
//	POST /v1/index/load      adopt persisted indexes (load or rebuild)
//	GET  /v1/stats           epoch, cache and admission statistics
//	GET  /healthz            200, or 503 while draining
//	GET  /metrics            Prometheus text exposition
//
// Production shape, not a demo mux:
//
//   - Bounded admission. Reclaim work passes a queue + worker-slot gate
//     sized off the session configuration; when the queue is full the
//     request is shed immediately with 429 and a Retry-After, so overload
//     degrades into fast refusals instead of unbounded latency.
//   - Per-request timeouts layered on the ctx-first API: every request runs
//     under the server's maximum (client-requested timeouts clamp to it),
//     and a deadline firing mid-pipeline surfaces as 504 with the phase it
//     fired in.
//   - An epoch-keyed result cache: completed single-reclaim responses keyed
//     by (pinned epoch, source content fingerprint ⊕ options), byte-budgeted
//     LRU. Epoch bumps invalidate the whole cache for free — the next Apply
//     is the flush — and a repeated source under load is served in O(1)
//     without touching the pipeline.
//   - Graceful drain. Drain flips health to 503, refuses new work, and
//     waits for in-flight requests — each pinned RCU-style to the epoch it
//     started on, so a drain concurrent with Apply still completes every
//     accepted query on a consistent catalog.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gent/internal/core"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently-running reclaim requests (the admission
	// slots). <= 0 sizes it off the session: Config.TraverseWorkers when
	// set, else GOMAXPROCS.
	Workers int
	// Queue bounds requests waiting for a slot beyond the running ones; a
	// request arriving past Workers+Queue is shed with 429. <= 0 defaults to
	// 4× the worker count.
	Queue int
	// RequestTimeout caps every reclaim request's wall time; client-supplied
	// timeout_ms clamps to it. <= 0 defaults to 60s.
	RequestTimeout time.Duration
	// CacheBytes budgets the epoch-keyed result cache; 0 defaults to 64 MiB,
	// negative disables caching.
	CacheBytes int64
}

// Server serves one Reclaimer session over HTTP. Create with New, mount
// Handler, stop with Drain.
type Server struct {
	session *core.Reclaimer
	cfg     Config

	admit   *admission
	cache   *resultCache
	metrics *metricSet

	mu       sync.Mutex
	draining bool
	// applyMu serializes /v1/lake/apply: each batch and the snapshot pin
	// that reports its table count run back to back.
	applyMu sync.Mutex
	// inflight tracks admitted work so Drain can wait for it even when the
	// http.Server's own connection drain is bypassed (tests driving the
	// Handler directly).
	inflight sync.WaitGroup
}

// New creates a server over an existing session. The session's lake is the
// one /v1/lake/apply mutates; queries and mutations interleave safely (the
// session pins each query's epoch RCU-style).
func New(session *core.Reclaimer, cfg Config) *Server {
	if cfg.Workers <= 0 {
		if tw := session.Config().TraverseWorkers; tw > 0 {
			cfg.Workers = tw
		} else {
			cfg.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	return &Server{
		session: session,
		cfg:     cfg,
		admit:   newAdmission(cfg.Workers, cfg.Queue),
		cache:   newResultCache(cfg.CacheBytes),
		metrics: newMetricSet(),
	}
}

// Handler returns the server's routes. Mount it on any http.Server; cmd/
// gentd owns the listener so the library spawns no goroutines of its own.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reclaim", s.instrument("reclaim", s.handleReclaim))
	mux.HandleFunc("POST /v1/reclaim/stream", s.instrument("stream", s.handleStream))
	mux.HandleFunc("POST /v1/lake/apply", s.instrument("apply", s.handleApply))
	mux.HandleFunc("POST /v1/index/save", s.instrument("index_save", s.handleIndexSave))
	mux.HandleFunc("POST /v1/index/load", s.instrument("index_load", s.handleIndexLoad))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain begins the graceful shutdown: health flips to 503 (so a fronting
// balancer stops routing here), new work is refused with 503, and Drain
// blocks until every admitted request has finished or ctx expires —
// whichever comes first. In-flight queries complete on the epochs they
// pinned at entry, concurrent Apply or not. Idempotent. The caller still
// owns closing its http.Server (cmd/gentd calls http.Server.Shutdown after
// Drain returns, which then has nothing left to wait for).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.inflight.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admission is the bounded request gate: Workers slots of concurrent work,
// at most queue requests waiting behind them, everything past that shed.
type admission struct {
	slots chan struct{}
	mu    sync.Mutex
	// waiting counts requests between acquire and slot grant; bounded by cap.
	waiting int
	cap     int
}

// AdmissionStats is the gate's occupancy, served via /v1/stats.
type AdmissionStats struct {
	Workers int `json:"workers"`
	Queue   int `json:"queue"`
	Running int `json:"running"`
	Waiting int `json:"waiting"`
}

func newAdmission(workers, queue int) *admission {
	return &admission{slots: make(chan struct{}, workers), cap: queue}
}

// acquire admits the caller or refuses: ErrOverloaded when the wait queue is
// full, ctx.Err() when the client gave up while queued. On nil error the
// caller holds a slot and must release it.
func (a *admission) acquire(ctx context.Context) error {
	// Fast path: a free slot admits without queuing.
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	a.mu.Lock()
	if a.waiting >= a.cap {
		a.mu.Unlock()
		return ErrOverloaded
	}
	a.waiting++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
	}()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the caller's slot.
func (a *admission) release() { <-a.slots }

// stats returns the gate's occupancy.
func (a *admission) stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Workers: cap(a.slots),
		Queue:   a.cap,
		Running: len(a.slots),
		Waiting: a.waiting,
	}
}
