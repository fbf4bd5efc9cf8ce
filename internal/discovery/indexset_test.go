package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// noisyExampleLake is the running-example lake padded with bulk tables so the
// LSH first stage engages.
func noisyExampleLake(bulk int) *lake.Lake {
	l := exampleLake()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < bulk; i++ {
		n := table.New(fmt.Sprintf("bulk%02d", i), "a", "b")
		for j := 0; j < 10; j++ {
			n.AddRow(table.S(fmt.Sprintf("x%d", r.Intn(500))), table.N(float64(r.Intn(500))))
		}
		laketest.Add(l, n)
	}
	return l
}

// TestDiscoverWithMatchesFreshBuild asserts the shared-substrate entry point
// is result-identical to the per-call fresh build, with and without the LSH
// first stage.
func TestDiscoverWithMatchesFreshBuild(t *testing.T) {
	src := exampleSource()
	for _, topk := range []int{0, 10} {
		l := noisyExampleLake(50)
		opts := DefaultOptions()
		opts.FirstStageTopK = topk
		fresh := discover(t, l, src, opts)
		shared := discoverWith(t, l, index.BuildIndexSetSharded(l.Snapshot(), index.DefaultShards), src, opts)
		if !reflect.DeepEqual(fresh, shared) {
			t.Errorf("topk=%d: shared-index discovery diverged from fresh build", topk)
		}
	}
}

// TestDiscoverWithStaleIndex removes tables from the lake after the indexes
// were built: stale postings and stale LSH rankings must be skipped, never
// dereferenced, and the surviving results must match a fresh build over the
// shrunken lake.
func TestDiscoverWithStaleIndex(t *testing.T) {
	src := exampleSource()
	l := noisyExampleLake(50)
	ix := index.BuildIndexSetSharded(l.Snapshot(), index.DefaultShards)

	laketest.Remove(l, "lakeC")
	for i := 0; i < 10; i++ {
		laketest.Remove(l, fmt.Sprintf("bulk%02d", i))
	}

	opts := DefaultOptions()
	got := discoverWith(t, l, ix, src, opts)
	names := candidateNames(got)
	if names["lakeC"] {
		t.Error("removed table still discovered from stale index")
	}
	if !names["lakeA"] || !names["lakeB"] {
		t.Errorf("surviving candidates lost: %v", names)
	}
	if fresh := discover(t, l, src, opts); !reflect.DeepEqual(fresh, got) {
		t.Error("stale-index discovery diverged from fresh build over the shrunken lake")
	}

	// Same with the first stage engaged: TopK may rank removed tables.
	opts.FirstStageTopK = 10
	got = discoverWith(t, l, ix, src, opts)
	if candidateNames(got)["lakeC"] {
		t.Error("removed table survived the first-stage pool guard")
	}
}

// TestDiscoverWithLazyLSH leaves the LSH member nil: discovery must build
// the first stage on the fly and still match the fresh path.
func TestDiscoverWithLazyLSH(t *testing.T) {
	src := exampleSource()
	l := noisyExampleLake(50)
	opts := DefaultOptions()
	opts.FirstStageTopK = 10
	shared := discoverWith(t, l, &index.IndexSet{Inverted: index.BuildInverted(l.Snapshot())}, src, opts)
	if fresh := discover(t, l, src, opts); !reflect.DeepEqual(fresh, shared) {
		t.Error("nil-LSH discovery diverged from fresh build")
	}
}

// poolIndexedDiscover runs discovery the one-shot way — its inverted index
// built over the first-stage pool only — so the equivalence test below pins
// the layered entry point, which indexes the whole snapshot, to it
// bit-for-bit.
func poolIndexedDiscover(t *testing.T, snap *lake.Snapshot, src *table.Table, opts Options) []*Candidate {
	t.Helper()
	ctx := context.Background()
	pool := snap
	if opts.FirstStageTopK > 0 && snap.Len() > opts.FirstStageTopK {
		pool = firstStagePool(snap, index.BuildMinHashLSH(snap), src, opts.FirstStageTopK)
	}
	cands, err := setSimilarityContext(ctx, pool, index.BuildInverted(pool), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := expandContext(ctx, cands, src, maxJoinDepth)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiscoverMatchesPoolIndexedPipeline pins DiscoverWithSnapContext, with
// fresh and with prebuilt substrates, to the pool-indexed pipeline: the
// whole-snapshot inverted index must yield bit-identical candidates.
func TestDiscoverMatchesPoolIndexedPipeline(t *testing.T) {
	l := exampleLake()
	src := exampleSource()
	snap := l.Snapshot()
	for _, opts := range []Options{
		DefaultOptions(),
		func() Options { o := DefaultOptions(); o.FirstStageTopK = 2; return o }(),
	} {
		want := poolIndexedDiscover(t, snap, src, opts)

		got, err := DiscoverWithSnapContext(context.Background(), snap, &index.IndexSet{}, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fresh-build discovery diverged from the pool-indexed pipeline:\n got %v\nwant %v", got, want)
		}

		// Prebuilt substrates.
		gotWith, err := DiscoverWithSnapContext(context.Background(), snap, index.BuildIndexSetSharded(snap, index.DefaultShards), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotWith, want) {
			t.Fatal("prebuilt-substrate discovery diverged from the pool-indexed pipeline")
		}
	}
}
