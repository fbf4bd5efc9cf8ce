package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gent/internal/discovery"
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
	if _, err := r.Reclaim(novel); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reclaim(b.Sources[0]); err != nil {
		t.Fatal(err)
	}
	if after := b.Lake.Dict().Len(); after != before {
		t.Fatalf("lake dictionary grew from %d to %d entries while serving queries", before, after)
	}
}

// TestPipelineInternedMatchesStringReference is the end-to-end equivalence
// oracle for the interned traversal and integration paths: over the same
// discovered candidates, the default pipeline — ID-tuple matrix alignment,
// ID-keyed integration — must produce results identical to a pipeline forced
// onto the dictionary-less reference paths (canonical-key matrices and
// integration, the only ones that run for keys wider than
// table.MaxInternKeyArity), on every source of a TP-TR benchmark and under
// both matrix encodings.
func TestPipelineInternedMatchesStringReference(t *testing.T) {
	b := buildTPTR(t)
	for _, enc := range []matrix.Encoding{matrix.ThreeValued, matrix.TwoValued} {
		cfg := DefaultConfig()
		cfg.Encoding = enc
		for _, src := range b.Sources {
			interned, err := Reclaim(b.Lake, src, cfg)
			if err != nil {
				t.Fatalf("%s: interned pipeline: %v", src.Name, err)
			}
			// The reference run: a nil dict puts traversal and integration on
			// their canonical-string paths.
			reference, err := reclaimPipeline(context.Background(), src, cfg, nil, lake.Epoch{},
				func(ctx context.Context, keyed *table.Table, dopts discovery.Options) ([]*discovery.Candidate, error) {
					return discovery.DiscoverContext(ctx, b.Lake, keyed, dopts)
				})
			if err != nil {
				t.Fatalf("%s: reference pipeline: %v", src.Name, err)
			}
			assertSameResult(t, src.Name, reference, interned)
		}
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
	err := r.UseIndexes(&index.IndexSet{Inverted: index.BuildInverted(other.Lake)})
	if !errors.Is(err, lake.ErrDictMismatch) {
		t.Fatalf("foreign-dictionary injection: got %v, want lake.ErrDictMismatch", err)
	}
	if _, err := r.Reclaim(b.Sources[0]); err != nil {
		t.Fatalf("session unusable after the refused injection: %v", err)
	}
	// The same set keyed under the lake's own dictionary is accepted.
	r2 := NewReclaimer(b.Lake, DefaultConfig())
	if err := r2.UseIndexes(&index.IndexSet{Inverted: index.BuildInverted(b.Lake)}); err != nil {
		t.Fatalf("own-dictionary injection refused: %v", err)
	}
}
