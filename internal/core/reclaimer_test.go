package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"gent/internal/benchmark"
	"gent/internal/index"
	"gent/internal/matrix"
	"gent/internal/table"
)

func buildTPTR(t testing.TB) *benchmark.TPTR {
	t.Helper()
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base = 16
	o.MaxSourceRows = 60
	b, err := benchmark.BuildTPTR("reclaimer", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sources) == 0 {
		t.Fatal("benchmark has no sources")
	}
	return b
}

// assertSameResult asserts two pipeline outcomes agree on everything the
// paper's metrics see: the reclaimed bytes, the report, and the provenance.
func assertSameResult(t *testing.T, label string, fresh, session *Result) {
	t.Helper()
	if fresh.Reclaimed.String() != session.Reclaimed.String() {
		t.Errorf("%s: reclaimed tables not byte-identical", label)
	}
	if !reflect.DeepEqual(fresh.Report, session.Report) {
		t.Errorf("%s: reports differ:\nfresh   %+v\nsession %+v", label, fresh.Report, session.Report)
	}
	if fresh.CandidateCount != session.CandidateCount {
		t.Errorf("%s: candidate counts differ: %d vs %d",
			label, fresh.CandidateCount, session.CandidateCount)
	}
	if len(fresh.Originating) != len(session.Originating) {
		t.Fatalf("%s: originating counts differ: %d vs %d",
			label, len(fresh.Originating), len(session.Originating))
	}
	for i := range fresh.Originating {
		if !reflect.DeepEqual(fresh.Originating[i].Sources, session.Originating[i].Sources) {
			t.Errorf("%s: originating table %d provenance differs", label, i)
		}
	}
}

// TestReclaimerMatchesFreshReclaim asserts the session path — cached
// in-memory indexes and indexes persisted then reloaded from disk — produces
// results identical to the per-call fresh build of the one-shot
// ReclaimContext, on every source of a TP-TR benchmark.
func TestReclaimerMatchesFreshReclaim(t *testing.T) {
	b := buildTPTR(t)
	cfg := DefaultConfig()

	cached := NewReclaimer(b.Lake, cfg)
	dir := filepath.Join(t.TempDir(), "indexes")
	if err := cached.BuildIndexes().SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	persisted := NewReclaimer(b.Lake, cfg)
	if err := persisted.UseIndexes(loaded); err != nil {
		t.Fatal(err)
	}

	for _, src := range b.Sources {
		fresh, err := ReclaimContext(context.Background(), b.Lake, src, cfg)
		if err != nil {
			t.Fatalf("%s: fresh reclaim: %v", src.Name, err)
		}
		fromCache, err := cached.ReclaimContext(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: cached reclaim: %v", src.Name, err)
		}
		assertSameResult(t, src.Name+"/cached", fresh, fromCache)
		fromDisk, err := persisted.ReclaimContext(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: persisted reclaim: %v", src.Name, err)
		}
		assertSameResult(t, src.Name+"/persisted", fresh, fromDisk)
	}
}

// TestReclaimAllConcurrent runs the batched API with several workers against
// the sequential baseline; run under -race this doubles as the concurrency
// soundness check for the shared substrates.
func TestReclaimAllConcurrent(t *testing.T) {
	b := buildTPTR(t)
	cfg := DefaultConfig()

	batch, err := NewReclaimer(b.Lake, cfg).ReclaimAllContext(context.Background(), b.Sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(b.Sources) {
		t.Fatalf("got %d items for %d sources", len(batch), len(b.Sources))
	}
	for i, item := range batch {
		if item.Source != b.Sources[i] {
			t.Fatalf("item %d out of input order", i)
		}
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Source.Name, item.Err)
		}
		fresh, err := ReclaimContext(context.Background(), b.Lake, b.Sources[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, item.Source.Name, fresh, item.Result)
	}
}

// TestReclaimAllIsolatesFailures: one keyless, unminable source must fail
// alone while the rest of the batch succeeds.
func TestReclaimAllIsolatesFailures(t *testing.T) {
	src, l := buildScenario()
	bad := table.New("bad", "x")
	bad.AddRow(table.S("dup"))
	bad.AddRow(table.S("dup"))
	items, err := NewReclaimer(l, DefaultConfig()).ReclaimAllContext(context.Background(), []*table.Table{src, bad}, 2)
	if err != nil {
		t.Fatalf("per-source failures must not fail the batch: %v", err)
	}
	if items[0].Err != nil || items[0].Result == nil {
		t.Errorf("good source failed: %v", items[0].Err)
	}
	if items[1].Err == nil {
		t.Error("keyless source did not fail")
	}
}

// TestReclaimAllEmptyAndDefaults covers the zero-source batch and the
// workers<=0 default.
func TestReclaimAllEmptyAndDefaults(t *testing.T) {
	src, l := buildScenario()
	r := NewReclaimer(l, DefaultConfig())
	ctx := context.Background()
	if items, err := r.ReclaimAllContext(ctx, nil, 3); len(items) != 0 || err != nil {
		t.Errorf("empty batch must return no items and no error: %d, %v", len(items), err)
	}
	items, err := r.ReclaimAllContext(ctx, []*table.Table{src}, 0)
	if err != nil || len(items) != 1 || items[0].Err != nil {
		t.Fatalf("defaulted batch failed: %+v", items)
	}
	if !items[0].Result.Report.PerfectReclamation {
		t.Error("scenario not reclaimed through the batch API")
	}
}

// TestHandlesShareSubstrates: two handles of one session serve one set of
// substrates, whatever their configurations.
func TestHandlesShareSubstrates(t *testing.T) {
	_, l := buildScenario()
	r := NewReclaimer(l, DefaultConfig())
	c := DefaultConfig()
	c.Encoding = matrix.TwoValued
	a, b := r.BuildIndexes().Inverted, r.WithConfig(c).BuildIndexes().Inverted
	if a == nil || a != b {
		t.Fatalf("handles built separate inverted indexes: %p vs %p", a, b)
	}
}

// TestWithConfigLeavesReceiverUnchanged: a query through a derived handle
// runs under the handle's configuration and leaves the receiver's alone.
func TestWithConfigLeavesReceiverUnchanged(t *testing.T) {
	src, l := buildScenario()
	r := NewReclaimer(l, DefaultConfig())
	c := DefaultConfig()
	c.SkipTraversal = true
	c.Discovery.Tau = 0.5
	h := r.WithConfig(c)
	res, err := h.ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traversal != (matrix.TraverseStats{}) {
		t.Errorf("handle with SkipTraversal ran traversal: %+v", res.Traversal)
	}
	if !reflect.DeepEqual(r.Config(), DefaultConfig()) {
		t.Errorf("receiver config changed: %+v", r.Config())
	}
	if !reflect.DeepEqual(h.Config(), c) {
		t.Errorf("handle config = %+v, want %+v", h.Config(), c)
	}
}

// TestWithConfigBuildsAtSessionWidth: IndexShards is a session setting; a
// handle asking for another width still gets the session's substrate.
func TestWithConfigBuildsAtSessionWidth(t *testing.T) {
	_, l := buildScenario()
	cfg := DefaultConfig()
	cfg.IndexShards = 3
	r := NewReclaimer(l, cfg)
	c := cfg
	c.IndexShards = 1
	if got := r.WithConfig(c).BuildIndexes().Inverted.Shards(); got != 3 {
		t.Fatalf("handle built at width %d, want the session's 3", got)
	}
}

// TestUseIndexesRefusedAcrossHandles: the injection window is the session's,
// so a query through one handle closes it for every other handle.
func TestUseIndexesRefusedAcrossHandles(t *testing.T) {
	src, l := buildScenario()
	r := NewReclaimer(l, DefaultConfig())
	c := DefaultConfig()
	c.TraverseWorkers = 1
	if _, err := r.WithConfig(c).ReclaimContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if err := r.UseIndexes(nil); !errors.Is(err, ErrSessionStarted) {
		t.Fatalf("UseIndexes after another handle's query: %v, want ErrSessionStarted", err)
	}
}
