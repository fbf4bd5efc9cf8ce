package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// smallScenario is the core package's vertical-partition fixture: a keyed
// source whose clean partitions, an erroneous variant, and noise live in the
// lake.
func smallScenario() (*table.Table, *lake.Lake) {
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

func reclaimBody(t *testing.T, src *table.Table, o *ReclaimOptions) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(ReclaimRequest{Source: EncodeTable(src), Options: o})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// TestAdmissionShedsWith429 pins the overload contract: with every worker
// slot held and no queue, a reclaim request is refused immediately with 429,
// a Retry-After hint, and the shed counter ticks.
func TestAdmissionShedsWith429(t *testing.T) {
	src, l := smallScenario()
	s := New(core.NewReclaimer(l, core.DefaultConfig()), Config{Workers: 1, Queue: 1})

	// Occupy the only slot and fill the one queue seat so the next arrival
	// sheds. (A queued waiter needs its own goroutine; give it a context we
	// release at the end.)
	s.admit.slots <- struct{}{}
	waitCtx, releaseWaiter := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.admit.acquire(waitCtx) //nolint:errcheck
	}()
	for s.admit.stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/reclaim", reclaimBody(t, src, nil))
	s.handleReclaim(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}
	var e ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "overloaded" {
		t.Fatalf("body = %s (err %v), want code overloaded", rec.Body, err)
	}

	releaseWaiter()
	wg.Wait()
	<-s.admit.slots
}

// TestMetricsReadAdmissionGate: /metrics renders gentd_inflight and
// gentd_queued from the admission gate itself, so a request parked for a
// slot shows as queued and the slot's holder as in flight, whichever
// endpoint holds it.
func TestMetricsReadAdmissionGate(t *testing.T) {
	_, l := smallScenario()
	s := New(core.NewReclaimer(l, core.DefaultConfig()), Config{Workers: 1, Queue: 1})
	s.admit.slots <- struct{}{}
	waitCtx, releaseWaiter := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.admit.acquire(waitCtx) //nolint:errcheck
	}()
	for s.admit.stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"\ngentd_inflight 1\n", "\ngentd_queued 1\n"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(want), rec.Body)
		}
	}

	releaseWaiter()
	wg.Wait()
	<-s.admit.slots
}

// TestAdmissionQueueWaitsAndRecovers: a request that queues behind a held
// slot is admitted as soon as the slot frees.
func TestAdmissionQueueWaitsAndRecovers(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- a.acquire(context.Background()) }()
	for a.stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	a.release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	a.release()
	st := a.stats()
	if st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestAdmissionQueuedClientGivesUp: a caller whose context dies while queued
// gets its ctx error (served as 499/504), not a slot.
func TestAdmissionQueuedClientGivesUp(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.release()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- a.acquire(ctx) }()
	for a.stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; err != context.Canceled {
		t.Fatalf("queued acquire returned %v, want context.Canceled", err)
	}
	if StatusFor(context.Canceled) != StatusCanceled {
		t.Fatalf("canceled status = %d, want %d", StatusFor(context.Canceled), StatusCanceled)
	}
}

// TestDrainRefusesNewWorkAndWaits pins the drain lifecycle: in-flight work
// completes, new work is refused with 503 draining, health flips to 503, and
// Drain returns once the tail is done.
func TestDrainRefusesNewWorkAndWaits(t *testing.T) {
	src, l := smallScenario()
	s := New(core.NewReclaimer(l, core.DefaultConfig()), Config{})

	// One in-flight unit, held open across the drain call.
	if !s.begin() {
		t.Fatal("begin refused before drain")
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining.
	rec := httptest.NewRecorder()
	s.handleReclaim(rec, httptest.NewRequest(http.MethodPost, "/v1/reclaim", reclaimBody(t, src, nil)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("reclaim while draining = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", rec.Code)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with work still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.end()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// A drain with a stuck request gives up at its deadline.
	s2 := New(core.NewReclaimer(l, core.DefaultConfig()), Config{})
	if !s2.begin() {
		t.Fatal("begin refused")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s2.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("stuck drain returned %v, want deadline", err)
	}
	s2.end()
}
