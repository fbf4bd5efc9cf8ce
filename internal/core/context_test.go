package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gent/internal/lake"
	"gent/internal/table"
)

// coarseClock reports whether the platform's monotonic clock is too coarse
// to observe the sub-millisecond phases of these tiny test scenarios
// (notably Windows' ~0.5ms ticks); strictly-positive duration assertions
// are skipped there.
func coarseClock() bool { return runtime.GOOS == "windows" }

// waitNoExtraGoroutines asserts the goroutine count settles back to (at
// most) the baseline captured before the work under test, giving pool
// teardown a grace period.
func waitNoExtraGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestErrorTaxonomyNoKey: ErrNoKey now arrives phase-tagged but still
// matches errors.Is, and errors.As recovers the phase.
func TestErrorTaxonomyNoKey(t *testing.T) {
	src := table.New("dups", "a")
	src.AddRow(table.S("x"))
	src.AddRow(table.S("x"))
	_, err := ReclaimContext(context.Background(), lake.New(), src, DefaultConfig())
	if !errors.Is(err, ErrNoKey) {
		t.Fatalf("errors.Is(err, ErrNoKey) = false for %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) {
		t.Fatalf("error is not a *Error: %v", err)
	}
	if gerr.Phase != PhaseSource {
		t.Errorf("phase = %q, want %q", gerr.Phase, PhaseSource)
	}
	if gerr.Source != "dups" {
		t.Errorf("source = %q, want dups", gerr.Source)
	}
}

// TestRequireCandidates: an unmatchable source errors with ErrNoCandidates
// only under the option; the default path still returns an all-null result.
func TestRequireCandidates(t *testing.T) {
	src, _ := buildScenario()
	empty := lake.New()
	res, err := ReclaimContext(context.Background(), empty, src, DefaultConfig())
	if err != nil || res.Reclaimed == nil {
		t.Fatalf("default path must not error on empty discovery: %v", err)
	}
	cfg := DefaultConfig()
	cfg.RequireCandidates = true
	_, err = ReclaimContext(context.Background(), empty, src, cfg)
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("want ErrNoCandidates, got %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) || gerr.Phase != PhaseDiscovery {
		t.Errorf("want PhaseDiscovery *Error, got %v", err)
	}
}

// TestCancelPreDiscovery: an already-canceled context fails before any work
// at all — even key mining — tagged with the setup phase.
func TestCancelPreDiscovery(t *testing.T) {
	src, l := buildScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReclaimContext(ctx, l, src, DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) || gerr.Phase != PhaseSource {
		t.Errorf("want PhaseSource tag, got %+v", err)
	}
}

// cancelOn returns an observer that cancels the context the first time a
// matching event is seen.
func cancelOn(cancel context.CancelFunc, phase Phase, kind EventKind) ProgressObserver {
	var once sync.Once
	return ObserverFunc(func(ev ProgressEvent) {
		if ev.Phase == phase && ev.Kind == kind {
			once.Do(cancel)
		}
	})
}

// observed is the default configuration with obs attached.
func observed(obs ProgressObserver) Config {
	cfg := DefaultConfig()
	cfg.Observer = obs
	return cfg
}

// TestCancelMidDiscovery: cancellation raised while discovery runs surfaces
// as a PhaseDiscovery error wrapping context.Canceled.
func TestCancelMidDiscovery(t *testing.T) {
	src, l := buildScenario()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ReclaimContext(ctx, l, src, observed(cancelOn(cancel, PhaseDiscovery, EventPhaseStarted)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) || gerr.Phase != PhaseDiscovery {
		t.Errorf("want PhaseDiscovery tag, got %+v", err)
	}
}

// TestCancelMidTraversalRound: cancellation after the first greedy pick
// aborts within one round boundary, tagged PhaseTraversal, with discovery's
// completed timing preserved on the error.
func TestCancelMidTraversalRound(t *testing.T) {
	src, l := buildScenario()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ReclaimContext(ctx, l, src, observed(cancelOn(cancel, PhaseTraversal, EventTraverseRound)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) {
		t.Fatalf("error is not a *Error: %v", err)
	}
	if gerr.Phase != PhaseTraversal {
		t.Errorf("phase = %q, want %q", gerr.Phase, PhaseTraversal)
	}
	if gerr.Timing.Discover <= 0 && !coarseClock() {
		t.Errorf("partial timing lost: %+v", gerr.Timing)
	}
	waitNoExtraGoroutines(t, baseline)
}

// TestCancelMidIntegration: cancellation once traversal completes lands in
// the integration fold's per-table check.
func TestCancelMidIntegration(t *testing.T) {
	src, l := buildScenario()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ReclaimContext(ctx, l, src, observed(cancelOn(cancel, PhaseTraversal, EventPhaseDone)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) || gerr.Phase != PhaseIntegration {
		t.Errorf("want PhaseIntegration tag, got %+v", err)
	}
}

// TestObserverEventSequence: one run emits the documented event stream, and
// the traversal rounds agree with the picked originating tables.
func TestObserverEventSequence(t *testing.T) {
	src, l := buildScenario()
	var events []ProgressEvent
	res, err := ReclaimContext(context.Background(), l, src,
		observed(ObserverFunc(func(ev ProgressEvent) { events = append(events, ev) })))
	if err != nil {
		t.Fatal(err)
	}
	var rounds, picks []int
	done := map[Phase]ProgressEvent{}
	for _, ev := range events {
		if ev.Source != src.Name {
			t.Fatalf("event for wrong source %q", ev.Source)
		}
		switch ev.Kind {
		case EventTraverseRound:
			rounds = append(rounds, ev.Round)
			picks = append(picks, ev.Pick)
		case EventPhaseDone:
			done[ev.Phase] = ev
		}
	}
	for _, ph := range []Phase{PhaseDiscovery, PhaseTraversal, PhaseIntegration, PhaseEvaluation} {
		if _, ok := done[ph]; !ok {
			t.Errorf("no EventPhaseDone for %s", ph)
		}
	}
	if done[PhaseDiscovery].Count != res.CandidateCount {
		t.Errorf("discovery count %d != candidates %d", done[PhaseDiscovery].Count, res.CandidateCount)
	}
	if done[PhaseTraversal].Count != len(res.Originating) {
		t.Errorf("traversal count %d != originating %d", done[PhaseTraversal].Count, len(res.Originating))
	}
	if len(rounds) != len(res.Originating) {
		t.Fatalf("%d round events for %d picks", len(rounds), len(res.Originating))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Errorf("round %d numbered %d", i, r)
		}
	}
	if done[PhaseEvaluation].Score != res.Report.EIS {
		t.Errorf("evaluation score %v != EIS %v", done[PhaseEvaluation].Score, res.Report.EIS)
	}
	// The traversal-done event carries the engine's work counters, mirroring
	// Result.Traversal; rounds equal picks, and every candidate was looked at
	// (scored or pruned) at least once for the start-table scan.
	tv := done[PhaseTraversal]
	if tv.Scored != res.Traversal.CandidatesScored || tv.Pruned != res.Traversal.CandidatesPruned {
		t.Errorf("traversal event counters (%d, %d) != result (%d, %d)",
			tv.Scored, tv.Pruned, res.Traversal.CandidatesScored, res.Traversal.CandidatesPruned)
	}
	if res.Traversal.Rounds != len(res.Originating) {
		t.Errorf("traversal rounds %d != picks %d", res.Traversal.Rounds, len(res.Originating))
	}
	if res.Traversal.CandidatesScored < res.CandidateCount {
		t.Errorf("scored %d < candidate count %d", res.Traversal.CandidatesScored, res.CandidateCount)
	}
}

// TestTimingEvaluate: the evaluation phase is timed and included in Total.
func TestTimingEvaluate(t *testing.T) {
	src, l := buildScenario()
	res, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if got, want := tm.Total(), tm.Discover+tm.Traverse+tm.Integrate+tm.Evaluate; got != want {
		t.Errorf("Total() = %v, want %v", got, want)
	}
	if tm.Evaluate <= 0 && !coarseClock() {
		t.Errorf("Timing.Evaluate not measured: %+v", tm)
	}
}

// TestUseIndexesOrdering: injection after the first query (or any substrate
// build) is an explicit error, not a silent race.
func TestUseIndexesOrdering(t *testing.T) {
	src, l := buildScenario()
	r := NewReclaimer(l, DefaultConfig())
	if err := r.UseIndexes(nil); err != nil {
		t.Fatalf("UseIndexes before first query: %v", err)
	}
	if _, err := r.ReclaimContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if err := r.UseIndexes(nil); !errors.Is(err, ErrSessionStarted) {
		t.Fatalf("want ErrSessionStarted after first query, got %v", err)
	}
	r2 := NewReclaimer(l, DefaultConfig()).Warm()
	if err := r2.UseIndexes(nil); !errors.Is(err, ErrSessionStarted) {
		t.Fatalf("want ErrSessionStarted after Warm, got %v", err)
	}
}

// TestReclaimStreamDeliversAll: the stream yields every source exactly once
// (completion order), agreeing item-for-item with the input-order collector.
func TestReclaimStreamDeliversAll(t *testing.T) {
	b := buildTPTR(t)
	baseline := runtime.NumGoroutine()
	r := NewReclaimer(b.Lake, DefaultConfig())
	seen := make(map[int]BatchItem)
	for item := range r.ReclaimStream(context.Background(), b.Sources, 4) {
		if _, dup := seen[item.Index]; dup {
			t.Fatalf("index %d yielded twice", item.Index)
		}
		seen[item.Index] = item
	}
	if len(seen) != len(b.Sources) {
		t.Fatalf("stream yielded %d of %d sources", len(seen), len(b.Sources))
	}
	collected, err := r.ReclaimAllContext(context.Background(), b.Sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range collected {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Source.Name, item.Err)
		}
		if item.Index != i || seen[i].Source != item.Source {
			t.Fatalf("item %d mis-indexed", i)
		}
		assertSameResult(t, item.Source.Name+"/stream-vs-collect", seen[i].Result, item.Result)
	}
	waitNoExtraGoroutines(t, baseline)
}

// TestReclaimStreamEarlyBreak: breaking out of the range cancels the
// remaining work and tears the pool down without goroutine leaks.
func TestReclaimStreamEarlyBreak(t *testing.T) {
	src, l := buildScenario()
	srcs := make([]*table.Table, 16)
	for i := range srcs {
		srcs[i] = src
	}
	baseline := runtime.NumGoroutine()
	r := NewReclaimer(l, DefaultConfig())
	got := 0
	for item := range r.ReclaimStream(context.Background(), srcs, 2) {
		if item.Err != nil {
			t.Fatalf("unexpected error: %v", item.Err)
		}
		got++
		if got == 2 {
			break
		}
	}
	if got != 2 {
		t.Fatalf("consumed %d items, want 2", got)
	}
	waitNoExtraGoroutines(t, baseline)
}

// TestReclaimStreamCancelMidBatch: canceling the caller's context mid-stream
// still delivers the items that completed, surfaces phase-tagged
// cancellation errors for in-flight sources, and leaks nothing. The
// collector totalizes: unfinished sources carry the PhaseBatch error, and
// under a ctx done before the call that is every source.
func TestReclaimStreamCancelMidBatch(t *testing.T) {
	src, l := buildScenario()
	srcs := make([]*table.Table, 16)
	for i := range srcs {
		srcs[i] = src
	}
	baseline := runtime.NumGoroutine()
	r := NewReclaimer(l, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var okItems, errItems int
	for item := range r.ReclaimStream(ctx, srcs, 1) {
		if item.Err == nil {
			okItems++
			if !item.Result.Report.PerfectReclamation {
				t.Errorf("completed item %d not reclaimed", item.Index)
			}
		} else {
			errItems++
			if !errors.Is(item.Err, context.Canceled) {
				t.Errorf("item %d error does not wrap context.Canceled: %v", item.Index, item.Err)
			}
			var gerr *Error
			if !errors.As(item.Err, &gerr) {
				t.Errorf("item %d error is not phase-tagged: %v", item.Index, item.Err)
			}
		}
		cancel() // first item ends the batch
	}
	if okItems == 0 {
		t.Error("no completed items delivered before cancellation")
	}
	if okItems+errItems >= len(srcs) {
		t.Errorf("cancellation did not stop dispatch: %d items", okItems+errItems)
	}
	waitNoExtraGoroutines(t, baseline)

	// A ctx already done dispatches no source: the stream yields nothing,
	// and the collector keeps the batch total with the batch error on every
	// item.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for item := range r.ReclaimStream(ctx2, srcs, 2) {
		t.Errorf("dead ctx dispatched source %d (err %v)", item.Index, item.Err)
	}
	items, err := r.ReclaimAllContext(ctx2, srcs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want batch error wrapping context.Canceled, got %v", err)
	}
	var gerr *Error
	if !errors.As(err, &gerr) || gerr.Phase != PhaseBatch {
		t.Errorf("want PhaseBatch tag, got %v", err)
	}
	if len(items) != len(srcs) {
		t.Fatalf("collector returned %d items for %d sources", len(items), len(srcs))
	}
	for i, item := range items {
		var ierr *Error
		if !errors.As(item.Err, &ierr) || ierr.Phase != PhaseBatch {
			t.Errorf("item %d: want the PhaseBatch error, got result %v, err %v", i, item.Result != nil, item.Err)
		}
	}
}
