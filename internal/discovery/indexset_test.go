package discovery

import (
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
		shared := discoverWith(t, l, index.BuildIndexSet(l.Snapshot()), src, opts)
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
	ix := index.BuildIndexSet(l.Snapshot())

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
