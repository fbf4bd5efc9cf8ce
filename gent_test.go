package gent

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPublicAPIQuickstart(t *testing.T) {
	// Build a tiny lake through the public API only, and reclaim through the
	// root package's one-line convenience.
	l := NewLake()

	names := NewTable("names", "id", "name")
	names.AddRow(S("e1"), S("Ada"))
	names.AddRow(S("e2"), S("Grace"))

	roles := NewTable("roles", "id", "role")
	roles.AddRow(S("e1"), S("Engineer"))
	roles.AddRow(S("e2"), S("Admiral"))
	if _, err := l.Apply(context.Background(), Put(names), Put(roles)); err != nil {
		t.Fatal(err)
	}

	src := NewTable("target", "id", "name", "role")
	src.Key = []int{0}
	src.AddRow(S("e1"), S("Ada"), S("Engineer"))
	src.AddRow(S("e2"), S("Grace"), S("Admiral"))

	res, err := Reclaim(l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("quickstart scenario not reclaimed: %+v\n%s",
			res.Report, res.Reclaimed)
	}
	if len(res.Originating) != 2 {
		t.Errorf("expected 2 originating tables, got %d", len(res.Originating))
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	in := "id,name\n1,Ada\n2,Grace\n"
	tb, err := ReadTable(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if key := MineKey(tb, 2); len(key) != 1 {
		t.Errorf("mined key %v", key)
	}
	if got := EIS(withKey(tb), withKey(tb)); got != 1 {
		t.Errorf("self EIS = %v", got)
	}
	rep := Evaluate(withKey(tb), tb)
	if !rep.PerfectReclamation {
		t.Errorf("self evaluation not perfect: %+v", rep)
	}
}

func withKey(t *Table) *Table {
	c := t.Clone()
	c.Key = []int{0}
	return c
}

func TestPublicSessionAPI(t *testing.T) {
	l := NewLake()
	names := NewTable("names", "id", "name")
	names.AddRow(S("e1"), S("Ada"))
	names.AddRow(S("e2"), S("Grace"))
	roles := NewTable("roles", "id", "role")
	roles.AddRow(S("e1"), S("Engineer"))
	roles.AddRow(S("e2"), S("Admiral"))
	if _, err := l.Apply(context.Background(), Put(names), Put(roles)); err != nil {
		t.Fatal(err)
	}

	src := NewTable("target", "id", "name", "role")
	src.Key = []int{0}
	src.AddRow(S("e1"), S("Ada"), S("Engineer"))
	src.AddRow(S("e2"), S("Grace"), S("Admiral"))

	// Session reclamation, then the same session persisted and reloaded.
	ctx := context.Background()
	r := NewReclaimer(l, DefaultConfig())
	res, err := r.ReclaimContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("session reclaim not perfect: %+v", res.Report)
	}

	items, err := r.ReclaimAllContext(ctx, []*Table{src, src}, 2)
	if err != nil || len(items) != 2 {
		t.Fatalf("batch size %d (%v)", len(items), err)
	}
	for _, item := range items {
		if item.Err != nil || !item.Result.Report.PerfectReclamation {
			t.Errorf("batched reclaim failed: %+v", item)
		}
	}

	dir := t.TempDir() + "/indexes"
	if err := SaveIndexes(dir, r); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewReclaimer(l, DefaultConfig())
	if err := r2.UseIndexes(ix); err != nil {
		t.Fatal(err)
	}
	res2, err := r2.ReclaimContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reclaimed.String() != res.Reclaimed.String() {
		t.Error("persisted-index session diverged from in-memory session")
	}
}

// buildSessionScenario assembles the lake and source the session tests use.
func buildSessionScenario() (*Lake, *Table) {
	l := NewLake()
	names := NewTable("names", "id", "name")
	names.AddRow(S("e1"), S("Ada"))
	names.AddRow(S("e2"), S("Grace"))
	roles := NewTable("roles", "id", "role")
	roles.AddRow(S("e1"), S("Engineer"))
	roles.AddRow(S("e2"), S("Admiral"))
	if _, err := l.Apply(context.Background(), Put(names), Put(roles)); err != nil {
		panic(err)
	}
	src := NewTable("target", "id", "name", "role")
	src.Key = []int{0}
	src.AddRow(S("e1"), S("Ada"), S("Engineer"))
	src.AddRow(S("e2"), S("Grace"), S("Admiral"))
	return l, src
}

// TestPublicV2Surface exercises the context-first API end to end: config,
// observer, deadline, typed errors, and the streaming batch.
func TestPublicV2Surface(t *testing.T) {
	l, src := buildSessionScenario()

	// ReclaimContext with a traversal pool and an observer equals plain
	// Reclaim.
	events := 0
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cfg := DefaultConfig()
	cfg.TraverseWorkers = 2
	cfg.Observer = ObserverFunc(func(ProgressEvent) { events++ })
	res, err := ReclaimContext(ctx, l, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Reclaim(l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reclaimed.String() != plain.Reclaimed.String() {
		t.Error("context-first path diverged from plain Reclaim")
	}
	if events == 0 {
		t.Error("observer saw no events")
	}
	tm := res.Timing
	if tm.Total() != tm.Discover+tm.Traverse+tm.Integrate+tm.Evaluate {
		t.Errorf("Timing.Total() must be the exact sum of the phases (incl. Evaluate): %+v", tm)
	}
	if tm.Evaluate <= 0 && runtime.GOOS != "windows" {
		t.Errorf("Timing.Evaluate not measured: %+v", tm)
	}

	// Cancellation surfaces a phase-tagged *Error wrapping context.Canceled.
	dead, kill := context.WithCancel(context.Background())
	kill()
	_, err = ReclaimContext(dead, l, src, DefaultConfig())
	var gerr *Error
	if !errors.Is(err, context.Canceled) || !errors.As(err, &gerr) {
		t.Fatalf("want phase-tagged cancellation, got %v", err)
	}
	if gerr.Phase != PhaseSource {
		t.Errorf("phase = %q, want %q", gerr.Phase, PhaseSource)
	}

	// Streaming batch: completion-order items, all delivered.
	r := NewReclaimer(l, DefaultConfig())
	seen := 0
	for item := range r.ReclaimStream(context.Background(), []*Table{src, src, src}, 2) {
		if item.Err != nil || !item.Result.Report.PerfectReclamation {
			t.Fatalf("stream item %d failed: %+v", item.Index, item.Err)
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("stream delivered %d of 3 items", seen)
	}
}

// TestPublicV3Surface exercises the epoch-versioned lake lifecycle through
// the public API: Apply batches, epoch monotonicity, snapshot pinning,
// observer epoch stamps, and the relaxed UseIndexes contract.
func TestPublicV3Surface(t *testing.T) {
	ctx := context.Background()
	l := NewLake()
	names := NewTable("names", "id", "name")
	names.AddRow(S("e1"), S("Ada"))
	names.AddRow(S("e2"), S("Grace"))
	e1, err := l.Apply(ctx, Put(names))
	if err != nil {
		t.Fatal(err)
	}
	if e1.IsZero() || e1 != l.Epoch() {
		t.Fatalf("epoch after Apply = %v, lake at %v", e1, l.Epoch())
	}

	// A pinned snapshot survives later mutations.
	pinned := l.Snapshot()
	roles := NewTable("roles", "id", "role")
	roles.AddRow(S("e1"), S("Engineer"))
	roles.AddRow(S("e2"), S("Admiral"))
	e2, err := l.Apply(ctx, Put(roles), RenameTable("names", "people"))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Seq != e1.Seq+1 {
		t.Fatalf("epochs not monotonic: %v then %v", e1, e2)
	}
	if pinned.Get("names") == nil || pinned.Get("roles") != nil {
		t.Fatal("pinned snapshot saw the mutation")
	}
	if cur := l.Snapshot(); cur.Get("people") == nil || cur.Get("names") != nil {
		t.Fatal("rename not applied")
	}

	// A session query at this epoch, through a handle carrying an observer,
	// reclaims from the renamed catalog and every observer event carries the
	// pinned epoch.
	src := NewTable("target", "id", "name", "role")
	src.Key = []int{0}
	src.AddRow(S("e1"), S("Ada"), S("Engineer"))
	src.AddRow(S("e2"), S("Grace"), S("Admiral"))
	r := NewReclaimer(l, DefaultConfig())
	var epochs []Epoch
	observed := DefaultConfig()
	observed.Observer = ObserverFunc(func(ev ProgressEvent) { epochs = append(epochs, ev.Epoch) })
	res, err := r.WithConfig(observed).ReclaimContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.PerfectReclamation {
		t.Errorf("not reclaimed after rename: %+v", res.Report)
	}
	for _, e := range epochs {
		if e != e2 {
			t.Fatalf("observer event at %v, want %v", e, e2)
		}
	}

	// Injection: refused mid-epoch (old sentinel), refused with a stale
	// stamp after a new epoch (new sentinel wrapping the old), accepted
	// between epochs with a current stamp.
	ix := r.BuildIndexes()
	if err := r.UseIndexes(ix); !errors.Is(err, ErrSessionStarted) {
		t.Fatalf("mid-epoch injection: %v", err)
	}
	extra := NewTable("extra", "k", "v")
	extra.AddRow(S("k1"), S("v1"))
	if _, err := l.Apply(ctx, Put(extra)); err != nil {
		t.Fatal(err)
	}
	err = r.UseIndexes(ix)
	if !errors.Is(err, ErrEpochMismatch) || !errors.Is(err, ErrSessionStarted) {
		t.Fatalf("stale-stamp injection: %v", err)
	}
	if err := r.UseIndexes(NewReclaimer(l, DefaultConfig()).BuildIndexes()); err != nil {
		t.Fatalf("between-epoch injection: %v", err)
	}

	// Bad batches are atomic and typed.
	before := l.Epoch()
	if _, err := l.Apply(ctx, Put(extra), RenameTable("ghost", "x")); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("bad batch: %v", err)
	}
	if l.Epoch() != before {
		t.Fatal("failed batch moved the epoch")
	}
}

func TestPublicSaveLoad(t *testing.T) {
	dir := t.TempDir()
	tb := NewTable("x", "a", "b")
	tb.AddRow(S("1"), N(2))
	if err := SaveTable(dir+"/x.csv", tb); err != nil {
		t.Fatal(err)
	}
	l, errs := LoadLake(dir)
	if n := l.Snapshot().Len(); len(errs) != 0 || n != 1 {
		t.Fatalf("load lake: %v, %d tables", errs, n)
	}
	got, err := LoadTable(dir + "/x.csv")
	if err != nil || got.NumRows() != 1 {
		t.Fatalf("load table: %v", err)
	}
}
