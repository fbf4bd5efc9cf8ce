package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/matrix"
	"gent/internal/table"
)

// mutateLake applies one scripted mutation wave to a TP-TR lake: drop one
// variant, replace another with a truncated copy, and add a fresh distractor
// table — the add/replace/drop mix the incremental maintenance must handle.
func mutateLake(t *testing.T, l *lake.Lake, wave int) {
	t.Helper()
	names := l.Snapshot().Names()
	if len(names) < 4 {
		t.Fatal("lake too small to mutate")
	}
	dropped := names[wave%len(names)]
	replacedName := names[(wave+3)%len(names)]
	if replacedName == dropped {
		replacedName = names[(wave+4)%len(names)]
	}
	replaced := l.Snapshot().Get(replacedName).Clone()
	if n := len(replaced.Rows); n > 1 {
		replaced.Rows = replaced.Rows[:1+n/2]
	}
	distractor := table.New(fmt.Sprintf("distractor_w%d", wave), "dk", "dv")
	for i := 0; i < 6; i++ {
		distractor.AddRow(
			table.S(fmt.Sprintf("w%d-key-%d", wave, i)),
			table.S(fmt.Sprintf("w%d-val-%d", wave, i)),
		)
	}
	if _, err := l.Apply(context.Background(),
		lake.Drop(dropped),
		lake.Put(replaced),
		lake.Put(distractor),
	); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultSessionReleasesAncestors: a default session engages only the
// inverted index, so after 12 rounds of Apply and a query — whether or not
// BuildIndexes ran first — its one catch-up base is the inverted index at
// the current snapshot, and it holds no LSH base: no older snapshot stays
// reachable.
func TestDefaultSessionReleasesAncestors(t *testing.T) {
	for _, prebuilt := range []bool{false, true} {
		b := buildTPTR(t)
		session := NewReclaimer(b.Lake, DefaultConfig())
		if prebuilt {
			session.BuildIndexes()
		}
		for round := 1; round <= 12; round++ {
			mutateLake(t, b.Lake, round)
			if _, err := session.ReclaimContext(context.Background(), b.Sources[0]); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		snap := b.Lake.Snapshot()
		if inv := session.inv.Load(); inv == nil || inv.snap != snap || inv.sub != session.cur.Load().invSlot.ptr.Load() {
			t.Fatalf("BuildIndexes first %v: the inverted base is not the current snapshot's index", prebuilt)
		}
		if session.lsh.Load() != nil {
			t.Fatalf("BuildIndexes first %v: a default session holds an LSH base", prebuilt)
		}
	}
}

// TestSessionTracksEpochsMatchesFresh is the tentpole equivalence pin: a
// long-lived session whose substrates are maintained incrementally across
// mutation waves must produce, at every epoch, results bit-identical to a
// fresh session (full rebuild) over the same snapshot — candidates,
// traversal picks and reclaimed tables, under both matrix encodings.
func TestSessionTracksEpochsMatchesFresh(t *testing.T) {
	for _, enc := range []matrix.Encoding{matrix.ThreeValued, matrix.TwoValued} {
		b := buildTPTR(t)
		cfg := DefaultConfig()
		cfg.Encoding = enc
		session := NewReclaimer(b.Lake, cfg)
		srcs := b.Sources
		if len(srcs) > 6 {
			srcs = srcs[:6]
		}
		for wave := 0; wave < 4; wave++ {
			if wave > 0 {
				mutateLake(t, b.Lake, wave)
			}
			// A fresh session at this epoch builds its substrates from
			// scratch; the long-lived one catches up incrementally.
			fresh := NewReclaimer(b.Lake, cfg)
			for _, src := range srcs {
				want, err := fresh.ReclaimContext(context.Background(), src)
				if err != nil {
					t.Fatalf("enc %v wave %d %s: fresh: %v", enc, wave, src.Name, err)
				}
				got, err := session.ReclaimContext(context.Background(), src)
				if err != nil {
					t.Fatalf("enc %v wave %d %s: session: %v", enc, wave, src.Name, err)
				}
				assertSameResult(t, fmt.Sprintf("enc %v wave %d %s", enc, wave, src.Name), want, got)
			}
		}
	}
}

// TestSessionEpochsWithFirstStage runs the same equivalence with the LSH
// first stage engaged, so the MinHash tombstone/insert maintenance is on the
// hot path too.
func TestSessionEpochsWithFirstStage(t *testing.T) {
	b := buildTPTR(t)
	cfg := DefaultConfig()
	cfg.Discovery.FirstStageTopK = 8
	session := NewReclaimer(b.Lake, cfg)
	srcs := b.Sources[:3]
	for wave := 0; wave < 3; wave++ {
		if wave > 0 {
			mutateLake(t, b.Lake, wave)
		}
		fresh := NewReclaimer(b.Lake, cfg)
		for _, src := range srcs {
			want, err := fresh.ReclaimContext(context.Background(), src)
			if err != nil {
				t.Fatalf("wave %d %s: fresh: %v", wave, src.Name, err)
			}
			got, err := session.ReclaimContext(context.Background(), src)
			if err != nil {
				t.Fatalf("wave %d %s: session: %v", wave, src.Name, err)
			}
			assertSameResult(t, fmt.Sprintf("wave %d %s", wave, src.Name), want, got)
		}
	}
}

// TestSessionTracksInPlaceEdit: re-Putting a table edited in place (same
// pointer, the v2 idiom) cannot be bridged by a delta — the session must
// fall back to a rebuild at the new epoch and still match a fresh session.
func TestSessionTracksInPlaceEdit(t *testing.T) {
	b := buildTPTR(t)
	cfg := DefaultConfig()
	session := NewReclaimer(b.Lake, cfg)
	src := b.Sources[0]
	if _, err := session.ReclaimContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	victim := b.Lake.Snapshot().Get(b.Lake.Snapshot().Names()[0])
	victim.Rows = victim.Rows[:len(victim.Rows)/2] // in-place edit
	laketest.Add(b.Lake, victim)
	want, err := NewReclaimer(b.Lake, cfg).ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := session.ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "in-place edit", want, got)
}

// TestUseIndexesBetweenEpochs pins the relaxed injection contract: allowed
// before the first query of an epoch, refused mid-epoch with
// ErrSessionStarted, refused with ErrEpochMismatch (which wraps
// ErrSessionStarted) when the stamp is stale, and reopened by the next
// Apply.
func TestUseIndexesBetweenEpochs(t *testing.T) {
	b := buildTPTR(t)
	r := NewReclaimer(b.Lake, DefaultConfig())
	src := b.Sources[0]

	// Epoch A: build, persist, query.
	ixA := r.BuildIndexes()
	if ixA.Epoch != b.Lake.Epoch() {
		t.Fatalf("BuildIndexes stamped %v, lake at %v", ixA.Epoch, b.Lake.Epoch())
	}
	if _, err := r.ReclaimContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	// Mid-epoch injection: still refused, old sentinel.
	if err := r.UseIndexes(ixA); !errors.Is(err, ErrSessionStarted) {
		t.Fatalf("mid-epoch injection: %v, want ErrSessionStarted", err)
	}

	// The lake moves on: the injection window reopens, but the stale stamp
	// is refused with the new sentinel — which still matches the old one.
	mutateLake(t, b.Lake, 1)
	err := r.UseIndexes(ixA)
	if !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale-epoch injection: %v, want ErrEpochMismatch", err)
	}
	if !errors.Is(err, ErrSessionStarted) {
		t.Fatal("ErrEpochMismatch does not wrap ErrSessionStarted")
	}

	// A set built at the current epoch injects cleanly between epochs —
	// even though the session has already served queries at a prior epoch.
	ixB := NewReclaimer(b.Lake, DefaultConfig()).BuildIndexes()
	if err := r.UseIndexes(ixB); err != nil {
		t.Fatalf("between-epoch injection: %v", err)
	}
	got, err := r.ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewReclaimer(b.Lake, DefaultConfig()).ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "injected-after-epoch", want, got)
}

// TestReclaimStreamAcrossEpochSwap: a mutation landing mid-stream must not
// tear in-flight items — each item completes on the snapshot it started on,
// its observer events all carry that epoch, later items see the new epoch,
// and no goroutine leaks.
func TestReclaimStreamAcrossEpochSwap(t *testing.T) {
	b := buildTPTR(t)
	baseline := runtime.NumGoroutine()
	r := NewReclaimer(b.Lake, DefaultConfig())
	srcs := b.Sources[:4]
	epochBefore := b.Lake.Epoch()

	var obsMu sync.Mutex
	epochsBySource := make(map[string]map[lake.Epoch]bool)
	var swapOnce sync.Once
	obs := ObserverFunc(func(ev ProgressEvent) {
		obsMu.Lock()
		m := epochsBySource[ev.Source]
		if m == nil {
			m = make(map[lake.Epoch]bool)
			epochsBySource[ev.Source] = m
		}
		m[ev.Epoch] = true
		obsMu.Unlock()
		// Swap the lake mid-run of the second source: that item already
		// started, so it must complete on the old snapshot.
		if ev.Source == srcs[1].Name && ev.Phase == PhaseDiscovery && ev.Kind == EventPhaseStarted {
			swapOnce.Do(func() { mutateLake(t, b.Lake, 2) })
		}
	})

	items := 0
	for item := range r.WithConfig(observed(obs)).ReclaimStream(context.Background(), srcs, 1) {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Source.Name, item.Err)
		}
		items++
	}
	if items != len(srcs) {
		t.Fatalf("stream yielded %d of %d items", items, len(srcs))
	}
	epochAfter := b.Lake.Epoch()
	if epochAfter == epochBefore {
		t.Fatal("swap never happened")
	}
	for i, src := range srcs {
		m := epochsBySource[src.Name]
		if len(m) != 1 {
			t.Fatalf("%s: events span %d epochs, want exactly 1 (pinning)", src.Name, len(m))
		}
		var got lake.Epoch
		for e := range m {
			got = e
		}
		switch {
		case i <= 1 && got != epochBefore:
			t.Errorf("%s (pre-swap, workers=1): pinned to %v, want %v", src.Name, got, epochBefore)
		case i >= 2 && got != epochAfter:
			t.Errorf("%s (post-swap): pinned to %v, want %v", src.Name, got, epochAfter)
		}
	}
	// No goroutine leaks across the swap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across epoch swap: %d -> %d", baseline, n)
	}
}

// TestConcurrentInjectAndQuery races UseIndexes against first queries at
// each epoch: the claim in acquire and the injection check share one lock,
// so either the injection lands before any query claims the epoch (and that
// query serves the injected substrates) or it is refused with
// ErrSessionStarted — never a mix of substrates within one epoch.
func TestConcurrentInjectAndQuery(t *testing.T) {
	b := buildTPTR(t)
	src := b.Sources[0]
	want, err := NewReclaimer(b.Lake, DefaultConfig()).ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		r := NewReclaimer(b.Lake, DefaultConfig())
		ix := NewReclaimer(b.Lake, DefaultConfig()).BuildIndexes()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := r.UseIndexes(ix); err != nil && !errors.Is(err, ErrSessionStarted) {
				t.Errorf("inject: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			got, err := r.ReclaimContext(context.Background(), src)
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if got.Reclaimed.String() != want.Reclaimed.String() {
				t.Error("query under concurrent injection diverged")
			}
		}()
		wg.Wait()
	}
}

// TestConcurrentApplyAndReclaim races Apply against session queries under
// -race: every query must complete without error on a self-consistent
// snapshot while the catalog churns.
func TestConcurrentApplyAndReclaim(t *testing.T) {
	b := buildTPTR(t)
	r := NewReclaimer(b.Lake, DefaultConfig()).Warm()
	src := b.Sources[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for wave := 10; ; wave++ {
			select {
			case <-stop:
				return
			default:
			}
			distractor := table.New(fmt.Sprintf("churn_%d", wave), "ck", "cv")
			for i := 0; i < 4; i++ {
				distractor.AddRow(table.S(fmt.Sprintf("ck%d-%d", wave, i)), table.N(float64(i)))
			}
			if _, err := b.Lake.Apply(context.Background(),
				lake.Put(distractor),
				lake.Drop(fmt.Sprintf("churn_%d", wave-3)),
			); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var queriers sync.WaitGroup
	for q := 0; q < 3; q++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 6; i++ {
				if _, err := r.ReclaimContext(context.Background(), src); err != nil {
					t.Errorf("query under churn: %v", err)
					return
				}
			}
		}()
	}
	queriers.Wait() // churn runs for the queriers' whole lifetime
	close(stop)
	wg.Wait()
}

// TestSessionCatchesUpAcrossManyEpochs: ten Applys with no query in between
// are caught up from the session's one base per substrate kind, and every
// query after them matches a fresh session bit for bit, with and without
// the LSH first stage. The bases come from Warm, or from an injected set
// no query ever served.
func TestSessionCatchesUpAcrossManyEpochs(t *testing.T) {
	for _, topK := range []int{0, 8} {
		for _, injected := range []bool{false, true} {
			label := fmt.Sprintf("topk %d injected %v", topK, injected)
			b := buildTPTR(t)
			cfg := DefaultConfig()
			cfg.Discovery.FirstStageTopK = topK
			session := NewReclaimer(b.Lake, cfg)
			if injected {
				if err := session.UseIndexes(NewReclaimer(b.Lake, cfg).BuildIndexes()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			} else {
				session.Warm()
			}
			if session.inv.Load() == nil || (topK > 0) != (session.lsh.Load() != nil) {
				t.Fatalf("%s: the session does not hold exactly one base per engaged substrate", label)
			}
			for wave := 1; wave <= 10; wave++ {
				mutateLake(t, b.Lake, wave)
			}
			fresh := NewReclaimer(b.Lake, cfg)
			for _, src := range b.Sources[:3] {
				want, err := fresh.ReclaimContext(context.Background(), src)
				if err != nil {
					t.Fatalf("%s %s: fresh: %v", label, src.Name, err)
				}
				got, err := session.ReclaimContext(context.Background(), src)
				if err != nil {
					t.Fatalf("%s %s: session: %v", label, src.Name, err)
				}
				assertSameResult(t, label+" "+src.Name, want, got)
			}
		}
	}
}

// TestConcurrentLateResolveAtOlderEpoch: a query pinned at epoch E that
// resolves its substrates only after a query at E+1 has finished derives
// them from the newer base, a delta backwards, and matches a fresh session
// at E bit for bit; the E+1 base stays the newest.
func TestConcurrentLateResolveAtOlderEpoch(t *testing.T) {
	for _, topK := range []int{0, 8} {
		t.Run(fmt.Sprintf("topk=%d", topK), func(t *testing.T) {
			b := buildTPTR(t)
			cfg := DefaultConfig()
			cfg.Discovery.FirstStageTopK = topK
			src := b.Sources[0]
			ctx := context.Background()
			session := NewReclaimer(b.Lake, cfg).Warm()
			mutateLake(t, b.Lake, 1)
			want, err := NewReclaimer(b.Lake, cfg).ReclaimContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}

			// The query at E claims its state at entry and blocks at the start
			// of discovery, before it resolves a substrate.
			reached, release := make(chan struct{}), make(chan struct{})
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }
			defer unblock()
			pinned := cfg
			var blockOnce sync.Once
			pinned.Observer = ObserverFunc(func(ev ProgressEvent) {
				if ev.Phase == PhaseDiscovery && ev.Kind == EventPhaseStarted {
					blockOnce.Do(func() {
						close(reached)
						<-release
					})
				}
			})
			type outcome struct {
				res *Result
				err error
			}
			late := make(chan outcome, 1)
			go func() {
				res, err := session.WithConfig(pinned).ReclaimContext(ctx, src)
				late <- outcome{res, err}
			}()
			<-reached

			mutateLake(t, b.Lake, 2)
			next := b.Lake.Snapshot()
			wantNext, err := NewReclaimer(b.Lake, cfg).ReclaimContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			gotNext, err := session.ReclaimContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "E+1", wantNext, gotNext)

			unblock()
			o := <-late
			if o.err != nil {
				t.Fatalf("late query at E: %v", o.err)
			}
			assertSameResult(t, "late at E", want, o.res)
			if session.inv.Load().snap != next {
				t.Error("the late resolve at E replaced the newer inverted base")
			}
			if topK > 0 && session.lsh.Load().snap != next {
				t.Error("the late resolve at E replaced the newer LSH base")
			}
		})
	}
}

// TestUseIndexesRefusesUnstampedLoadedSet: a set read from disk binds only
// at exactly the lake's current epoch, even one saved without a stamp. Here
// the lake has since gained a table: the saved dictionary prefix still
// verifies, but the postings miss the new table, so UseIndexes refuses with
// ErrEpochMismatch. A set built in this process keeps the zero stamp as a
// wildcard.
func TestUseIndexesRefusesUnstampedLoadedSet(t *testing.T) {
	b := buildTPTR(t)
	built := NewReclaimer(b.Lake, DefaultConfig()).BuildIndexes()
	built.Epoch = lake.Epoch{}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	gained := table.New("gained", "gk", "gv")
	gained.AddRow(table.S("gained-key"), table.S("Zephyr"))
	if _, err := b.Lake.Apply(context.Background(), lake.Put(gained)); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Inverted.Covers(b.Lake.Snapshot()) {
		t.Fatal("precondition: the saved set covers the grown lake")
	}
	if err := NewReclaimer(b.Lake, DefaultConfig()).UseIndexes(loaded); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("unstamped loaded set over a grown lake: %v, want ErrEpochMismatch", err)
	}
	inProcess := NewReclaimer(b.Lake, DefaultConfig()).BuildIndexes()
	inProcess.Epoch = lake.Epoch{}
	if err := NewReclaimer(b.Lake, DefaultConfig()).UseIndexes(inProcess); err != nil {
		t.Fatalf("unstamped in-process set: %v", err)
	}
}
