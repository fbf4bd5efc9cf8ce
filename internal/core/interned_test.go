package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

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
			res, err := Reclaim(b.Lake, src, cfg)
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
