package index

import (
	"fmt"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// cityTable builds a table whose single column holds decorated city names.
func cityTable(name, prefix string, n int) *table.Table {
	t := table.New(name, "place")
	cities := []string{"berlin", "hamburg", "munich", "cologne", "frankfurt",
		"stuttgart", "dresden", "leipzig", "bremen", "hanover"}
	for i := 0; i < n; i++ {
		t.AddRow(table.S(prefix + cities[i%len(cities)] + fmt.Sprintf("-%d", i/len(cities))))
	}
	return t
}

func TestCosineLSHFindsDriftedColumn(t *testing.T) {
	l := lake.New()
	laketest.Add(l, cityTable("cities", "", 30))
	laketest.Add(l, mkNumbers("numbers", 50))
	snap := l.Snapshot()
	ix := BuildCosineLSH(snap, nil)
	if !ix.Covers(snap) {
		t.Fatal("fresh build does not cover its corpus")
	}
	query := cityTable("q", "de·", 30) // zero exact value overlap with "cities"
	ms := ix.SearchColumn(query, 0, 0.5, 5)
	if len(ms) == 0 || ms[0].Ref != (ColumnRef{Table: "cities", Col: 0}) {
		t.Fatalf("drifted query missed the city column: %v", ms)
	}
	// Different content must not pass the threshold at rank 1.
	for _, m := range ms {
		if m.Ref.Table == "numbers" && m.Cosine >= ms[0].Cosine {
			t.Fatalf("unrelated column outranked the true match: %v", ms)
		}
	}
}

func mkNumbers(name string, n int) *table.Table {
	t := table.New(name, "n")
	for i := 0; i < n; i++ {
		t.AddRow(table.N(float64(i * 7717 % 100000)))
	}
	return t
}

// TestCosineWithDeltaWithoutEmbedder: an index that lost its embedder
// (external-kind load) must refuse deltas instead of inserting zero vectors.
func TestCosineWithDeltaWithoutEmbedder(t *testing.T) {
	l := lake.New()
	laketest.Add(l, cityTable("t", "", 5))
	snap := l.Snapshot()
	snap.EnsureInterned()
	ix := BuildCosineLSH(snap, nil)
	ix.emb = nil
	if ix.WithDelta([]*table.Interned{snap.Interned("t")}, nil) != nil {
		t.Fatal("embedder-less index accepted a delta")
	}
}
