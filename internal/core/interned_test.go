package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gent/internal/benchmark"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/matrix"
	"gent/internal/table"
)

// TestQueriesDoNotGrowLakeDict pins the overlay contract a long-lived
// session depends on: serving queries — including sources full of values the
// lake has never seen — must not grow the shared append-only dictionary, or
// a server session would leak memory per query.
func TestQueriesDoNotGrowLakeDict(t *testing.T) {
	b := buildTPTR(t)
	r := NewReclaimer(b.Lake, DefaultConfig())
	r.Warm()
	before := b.Lake.Dict().Len()

	novel := table.New("novel", "x", "y")
	novel.Key = []int{0}
	for i := 0; i < 20; i++ {
		novel.AddRow(table.S(fmt.Sprintf("unseen-key-%d", i)), table.S(fmt.Sprintf("unseen-val-%d", i)))
	}
	if _, err := r.ReclaimContext(context.Background(), novel); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReclaimContext(context.Background(), b.Sources[0]); err != nil {
		t.Fatal(err)
	}
	if after := b.Lake.Dict().Len(); after != before {
		t.Fatalf("lake dictionary grew from %d to %d entries while serving queries", before, after)
	}
}

// buildWide is benchmark.BuildWidePreset's recipe at test scale: most
// candidates of a source are slices that lack its key, so Expand joins them.
func buildWide(t testing.TB) *benchmark.TPTR {
	t.Helper()
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base, o.MaxSourceRows = 30, 60
	o.NullRate, o.ErrRate = 0.9, 0.5
	b, err := benchmark.BuildTPTR("tp-tr-wide", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := benchmark.AddWideSlices(b, 4, o.Seed+7); err != nil {
		t.Fatal(err)
	}
	return b
}

// lakeRows deep-copies the rows of every table in snap, by name.
func lakeRows(snap *lake.Snapshot) map[string][]table.Row {
	out := make(map[string][]table.Row, snap.Len())
	for _, tb := range snap.Tables() {
		out[tb.Name] = tb.Clone().Rows
	}
	return out
}

// requireLakeRows fails unless every table of snap still holds exactly the
// rows, in the order, that lakeRows copied.
func requireLakeRows(t *testing.T, snap *lake.Snapshot, want map[string][]table.Row) {
	t.Helper()
	for name, rows := range want {
		if got := snap.Get(name).Rows; !reflect.DeepEqual(got, rows) {
			t.Fatalf("lake table %s changed while serving queries", name)
		}
	}
}

// TestQueriesDoNotMutateLake pins the contract candidates rest on: they
// share the lake's rows (table.Rename returns a view), so no query — a
// reclaim, a batch or an explanation, on a keyed corpus or on one whose
// candidates Expand must join to the key — may write a lake row or reorder
// a lake table.
func TestQueriesDoNotMutateLake(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    *benchmark.TPTR
	}{{"keyed", buildTPTR(t)}, {"expand", buildWide(t)}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			snap := tc.b.Lake.Snapshot()
			before := lakeRows(snap)
			r := NewReclaimer(tc.b.Lake, DefaultConfig())
			joined := 0
			for _, src := range tc.b.Sources {
				res, err := r.ReclaimContext(ctx, src)
				if err != nil {
					t.Fatalf("%s: %v", src.Name, err)
				}
				res.Explain(src)
				for _, c := range res.Originating {
					if len(c.Sources) > 1 {
						joined++
					}
				}
			}
			if _, err := r.ReclaimAllContext(ctx, tc.b.Sources, 2); err != nil {
				t.Fatal(err)
			}
			if tc.name == "expand" && joined == 0 {
				t.Fatal("no originating table came from an Expand join: the corpus does not exercise Expand")
			}
			requireLakeRows(t, snap, before)
		})
	}
}

// TestConcurrentReclaimsShareLakeRows runs reclaims of the same sources in
// parallel over one snapshot. Every query reads the same lake rows, so under
// -race a query that writes one is a reported race; the results must also
// match a sequential run and leave the lake as it was.
func TestConcurrentReclaimsShareLakeRows(t *testing.T) {
	b := buildTPTR(t)
	ctx := context.Background()
	snap := b.Lake.Snapshot()
	before := lakeRows(snap)
	r := NewReclaimer(b.Lake, DefaultConfig())
	want := make([]*Result, len(b.Sources))
	for i, src := range b.Sources {
		res, err := r.ReclaimContext(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		want[i] = res
	}
	const workers = 3
	got := make([][]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*Result, len(b.Sources))
			for k := range b.Sources {
				i := (k + w) % len(b.Sources) // each worker starts elsewhere
				res, err := r.ReclaimContext(ctx, b.Sources[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = res
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i, src := range b.Sources {
			assertSameResult(t, src.Name, want[i], got[w][i])
		}
	}
	requireLakeRows(t, snap, before)
}

// goldenPipeline is the SHA-256 of every result TestPipelineMatchesGolden
// produces. It was recorded when traversal and integration still ran on two
// key paths — dictionary ID tuples by default, canonical key strings without
// a dictionary, which agreed on every source — so the single table.KeyIndex
// path must reproduce what both computed.
const goldenPipeline = "9c7e9282bd3d45f0972fda1006c2cb5a6d7059ac813330bd260279c7d1bef432"

// TestPipelineMatchesGolden pins the end-to-end pipeline on every source of
// a TP-TR benchmark under both matrix encodings: candidate counts, reports,
// originating tables and the reclaimed bytes must hash to goldenPipeline.
func TestPipelineMatchesGolden(t *testing.T) {
	b := buildTPTR(t)
	h := sha256.New()
	for _, enc := range []matrix.Encoding{matrix.ThreeValued, matrix.TwoValued} {
		cfg := DefaultConfig()
		cfg.Encoding = enc
		for _, src := range b.Sources {
			res, err := ReclaimContext(context.Background(), b.Lake, src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", src.Name, err)
			}
			fmt.Fprintf(h, "%s enc %d candidates %d report %+v\n", src.Name, enc, res.CandidateCount, res.Report)
			for _, c := range res.Originating {
				fmt.Fprintf(h, "originating %q\n", c.Sources)
			}
			h.Write([]byte(res.Reclaimed.String()))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPipeline {
		t.Fatalf("pipeline digest %s, golden %s", got, goldenPipeline)
	}
}

// TestUseIndexesRefusesForeignDictionary: a dictionary-less set whose
// inverted index is keyed under another lake's dictionary cannot serve this
// lake; injection fails with lake.ErrDictMismatch (which boot.AdoptIndexes
// routes to rebuild-with-warning) and leaves the session usable.
func TestUseIndexesRefusesForeignDictionary(t *testing.T) {
	b := buildTPTR(t)
	other := buildTPTR(t)
	r := NewReclaimer(b.Lake, DefaultConfig())
	err := r.UseIndexes(&index.IndexSet{Inverted: index.BuildInverted(other.Lake.Snapshot())})
	if !errors.Is(err, lake.ErrDictMismatch) {
		t.Fatalf("foreign-dictionary injection: got %v, want lake.ErrDictMismatch", err)
	}
	if _, err := r.ReclaimContext(context.Background(), b.Sources[0]); err != nil {
		t.Fatalf("session unusable after the refused injection: %v", err)
	}
	// The same set keyed under the lake's own dictionary is accepted.
	r2 := NewReclaimer(b.Lake, DefaultConfig())
	if err := r2.UseIndexes(&index.IndexSet{Inverted: index.BuildInverted(b.Lake.Snapshot())}); err != nil {
		t.Fatalf("own-dictionary injection refused: %v", err)
	}
}
