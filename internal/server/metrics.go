package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gent/internal/core"
)

// metricSet is gentd's telemetry: request/response counters, the shed
// count, result-cache traffic, and per-phase latency histograms fed by the
// pipeline's own ProgressObserver — the structured events every run already
// emits. Rendered in the Prometheus text exposition format at /metrics with
// no dependency beyond fmt.
type metricSet struct {
	mu sync.Mutex
	// requests counts completed requests by (endpoint, status).
	requests map[reqKey]uint64
	// shed counts admissions refused with 429.
	shed uint64
	// panics counts handler panics recovered into a 500.
	panics uint64
	// cacheHits / cacheMisses mirror the result cache's own counters but are
	// bumped at serve time, so a scrape between request and counter update
	// cannot go backwards.
	phase map[core.Phase]*histogram
	// request latency by endpoint.
	latency map[string]*histogram
	// traverseScored / traversePruned accumulate the traversal engine's work
	// counters across runs: candidate-rounds exact-scored vs skipped by the
	// admissible bound. Their ratio is the live pruning effectiveness.
	traverseScored uint64
	traversePruned uint64
	// discoveryCands accumulates, across runs, the candidates discovery
	// handed to Matrix Traversal.
	discoveryCands uint64
}

type reqKey struct {
	endpoint string
	status   int
}

// histogramBuckets are the upper bounds (seconds) of the latency histograms:
// 100µs to 10s, roughly ×2.5 per step — reclaims span from cache hits
// (microseconds) to cold large-corpus queries (seconds).
var histogramBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram; protected by metricSet.mu.
type histogram struct {
	counts []uint64 // one per bucket, +Inf last
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(histogramBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(histogramBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

func newMetricSet() *metricSet {
	return &metricSet{
		requests: make(map[reqKey]uint64),
		phase:    make(map[core.Phase]*histogram),
		latency:  make(map[string]*histogram),
	}
}

// observer returns the ProgressObserver that feeds the phase histograms; one
// observation per completed phase, tagged with the pipeline's own phase
// names. Safe for concurrent use (a stream's queries interleave).
func (m *metricSet) observer() core.ProgressObserver {
	return core.ObserverFunc(func(ev core.ProgressEvent) {
		if ev.Kind != core.EventPhaseDone {
			return
		}
		m.mu.Lock()
		h := m.phase[ev.Phase]
		if h == nil {
			h = newHistogram()
			m.phase[ev.Phase] = h
		}
		h.observe(ev.Elapsed.Seconds())
		if ev.Phase == core.PhaseTraversal {
			m.traverseScored += uint64(ev.Scored)
			m.traversePruned += uint64(ev.Pruned)
		}
		if ev.Phase == core.PhaseDiscovery {
			m.discoveryCands += uint64(ev.Count)
		}
		m.mu.Unlock()
	})
}

// request records one completed request.
func (m *metricSet) request(endpoint string, status int, elapsed time.Duration) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, status}]++
	h := m.latency[endpoint]
	if h == nil {
		h = newHistogram()
		m.latency[endpoint] = h
	}
	h.observe(elapsed.Seconds())
	m.mu.Unlock()
}

func (m *metricSet) shedOne() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

func (m *metricSet) panicOne() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// render writes the exposition text. gauges holds point-in-time values the
// server owns (epoch seq, table count, cache occupancy, admission-gate
// occupancy), passed in so the metric set needs no back-pointer.
func (m *metricSet) render(w io.Writer, cache ResultCacheStats, gauges map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP gentd_requests_total Completed requests by endpoint and status.\n")
	fmt.Fprintf(w, "# TYPE gentd_requests_total counter\n")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].status < keys[j].status
	})
	for _, k := range keys {
		fmt.Fprintf(w, "gentd_requests_total{endpoint=%q,status=\"%d\"} %d\n", k.endpoint, k.status, m.requests[k])
	}

	fmt.Fprintf(w, "# TYPE gentd_shed_total counter\n")
	fmt.Fprintf(w, "gentd_shed_total %d\n", m.shed)
	fmt.Fprintf(w, "# HELP gentd_handler_panics_total Handler panics recovered into a 500.\n")
	fmt.Fprintf(w, "# TYPE gentd_handler_panics_total counter\n")
	fmt.Fprintf(w, "gentd_handler_panics_total %d\n", m.panics)

	fmt.Fprintf(w, "# HELP gentd_result_cache Epoch-keyed result cache traffic.\n")
	fmt.Fprintf(w, "# TYPE gentd_result_cache_hits_total counter\n")
	fmt.Fprintf(w, "gentd_result_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# TYPE gentd_result_cache_misses_total counter\n")
	fmt.Fprintf(w, "gentd_result_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# TYPE gentd_result_cache_evictions_total counter\n")
	fmt.Fprintf(w, "gentd_result_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "# TYPE gentd_result_cache_invalidations_total counter\n")
	fmt.Fprintf(w, "gentd_result_cache_invalidations_total %d\n", cache.Invalidations)
	fmt.Fprintf(w, "# TYPE gentd_result_cache_entries gauge\n")
	fmt.Fprintf(w, "gentd_result_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(w, "# TYPE gentd_result_cache_bytes gauge\n")
	fmt.Fprintf(w, "gentd_result_cache_bytes %d\n", cache.Bytes)

	fmt.Fprintf(w, "# HELP gentd_traverse_candidates Traversal engine work: candidate-rounds exact-scored vs pruned by the admissible bound.\n")
	fmt.Fprintf(w, "# TYPE gentd_traverse_candidates_scored_total counter\n")
	fmt.Fprintf(w, "gentd_traverse_candidates_scored_total %d\n", m.traverseScored)
	fmt.Fprintf(w, "# TYPE gentd_traverse_candidates_pruned_total counter\n")
	fmt.Fprintf(w, "gentd_traverse_candidates_pruned_total %d\n", m.traversePruned)

	fmt.Fprintf(w, "# HELP gentd_discovery_candidates_total Candidates discovery handed to Matrix Traversal.\n")
	fmt.Fprintf(w, "# TYPE gentd_discovery_candidates_total counter\n")
	fmt.Fprintf(w, "gentd_discovery_candidates_total %d\n", m.discoveryCands)

	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n", n)
		fmt.Fprintf(w, "%s %g\n", n, gauges[n])
	}

	renderHistogramFamily(w, "gentd_phase_seconds", "phase",
		func(emit func(label string, h *histogram)) {
			phases := make([]string, 0, len(m.phase))
			for p := range m.phase {
				phases = append(phases, string(p))
			}
			sort.Strings(phases)
			for _, p := range phases {
				emit(p, m.phase[core.Phase(p)])
			}
		})
	renderHistogramFamily(w, "gentd_request_seconds", "endpoint",
		func(emit func(label string, h *histogram)) {
			eps := make([]string, 0, len(m.latency))
			for e := range m.latency {
				eps = append(eps, e)
			}
			sort.Strings(eps)
			for _, e := range eps {
				emit(e, m.latency[e])
			}
		})
}

// renderHistogramFamily writes one histogram family in exposition format,
// cumulative buckets included.
func renderHistogramFamily(w io.Writer, name, labelKey string, each func(emit func(string, *histogram))) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	each(func(label string, h *histogram) {
		var cum uint64
		for i, ub := range histogramBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, labelKey, label, ub, cum)
		}
		cum += h.counts[len(histogramBuckets)]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, labelKey, label, cum)
		fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, labelKey, label, h.sum)
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, label, h.total)
	})
}

// msOf converts a duration to float milliseconds for the wire timing.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
