package server

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gent/internal/core"
)

// TestHandlerPanicIs500AndCounted plants panicking handlers behind
// instrument on a real listener: the client reads a 500 rather than a
// dropped connection, a response already under way is aborted so its body
// fails to read rather than end short and look complete, /metrics counts
// both requests under 500 and in gentd_handler_panics_total, and
// http.ErrAbortHandler still aborts.
func TestHandlerPanicIs500AndCounted(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the recovered panics' stacks

	_, l := smallScenario()
	s := New(core.NewReclaimer(l, core.DefaultConfig()), Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", s.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("planted")
	}))
	mux.HandleFunc("GET /late", s.instrument("late", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("partial\n")) //nolint:errcheck
		w.(http.Flusher).Flush()
		panic("planted")
	}))
	hs := httptest.NewServer(mux)
	defer hs.Close()

	get := func(path string) (int, string, error) {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}
	if code, body, err := get("/boom"); err != nil || code != http.StatusInternalServerError || !strings.Contains(body, `"error"`) {
		t.Errorf("GET /boom = %d %q, %v; want 500 with a wire error", code, body, err)
	}
	if code, body, err := get("/late"); code != http.StatusOK || err == nil {
		t.Errorf("GET /late = %d %q, %v; want the 200 already sent, then a body read error", code, body, err)
	}

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"\ngentd_handler_panics_total 2\n",
		"\ngentd_requests_total{endpoint=\"boom\",status=\"500\"} 1\n",
		"\ngentd_requests_total{endpoint=\"late\",status=\"500\"} 1\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(want), rec.Body)
		}
	}

	abort := s.instrument("abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler re-panicked", p)
			}
		}()
		abort(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	}()
}
