package index

import (
	"fmt"
	"math/rand"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

func buildLake() *lake.Lake {
	l := lake.New()
	people := table.New("people", "name", "age")
	people.AddRow(table.S("Smith"), table.N(27))
	people.AddRow(table.S("Brown"), table.N(24))
	people.AddRow(table.S("Wang"), table.N(32))
	laketest.Add(l, people)

	cities := table.New("cities", "city", "pop")
	cities.AddRow(table.S("Boston"), table.N(600))
	cities.AddRow(table.S("Worcester"), table.N(180))
	laketest.Add(l, cities)

	mixed := table.New("mixed", "name", "city")
	mixed.AddRow(table.S("Smith"), table.S("Boston"))
	mixed.AddRow(table.S("Nobody"), table.S("Nowhere"))
	laketest.Add(l, mixed)
	return l
}

func TestInvertedSearch(t *testing.T) {
	got := searchValues(BuildInverted(buildLake().Snapshot()), table.S("Smith"), table.S("Brown"))
	if len(got) != 2 {
		t.Fatalf("got %d overlapping columns, want 2: %v", len(got), got)
	}
	// people.name overlaps on 2 values, mixed.name on 1.
	if got[0].Ref.Table != "people" || got[0].Count != 2 {
		t.Errorf("top overlap wrong: %+v", got[0])
	}
	if got[1].Ref.Table != "mixed" || got[1].Count != 1 {
		t.Errorf("second overlap wrong: %+v", got[1])
	}
	if got[0].Containment != 1.0 {
		t.Errorf("containment = %v, want 1", got[0].Containment)
	}
}

func TestInvertedColumnSizes(t *testing.T) {
	ix := BuildInverted(buildLake().Snapshot())
	got := searchValues(ix, table.S("Wang"))
	if len(got) != 1 || got[0].Ref.Table != "people" {
		t.Fatalf("single-value search wrong: %v", got)
	}
	if ix.ColumnSize(ColumnRef{Table: "people", Col: 0}) != 3 {
		t.Error("column size wrong")
	}
}

func TestInvertedEmptyQuery(t *testing.T) {
	ix := BuildInverted(buildLake().Snapshot())
	if got := ix.SearchIDs(nil); len(got) != 0 {
		t.Error("empty query must return nothing")
	}
}

func TestInvertedIgnoresNulls(t *testing.T) {
	l := lake.New()
	tb := table.New("nulls", "a")
	tb.AddRow(table.Null)
	laketest.Add(l, tb)
	ix := BuildInverted(l.Snapshot())
	if got := ix.SearchIDs([]uint32{table.NullID}); len(got) != 0 {
		t.Error("nulls must never be indexed or matched")
	}
}

func TestMinHashTopKFindsOverlappingTables(t *testing.T) {
	// A lake of 200 distractor tables plus one table sharing a column with
	// the query: the sharing table must rank first.
	r := rand.New(rand.NewSource(7))
	l := lake.New()
	for i := 0; i < 200; i++ {
		tb := table.New(fmt.Sprintf("noise%03d", i), "x", "y")
		for j := 0; j < 20; j++ {
			tb.AddRow(table.S(fmt.Sprintf("n%d-%d", i, r.Intn(1000))), table.N(float64(r.Intn(100))))
		}
		laketest.Add(l, tb)
	}
	target := table.New("target", "name", "extra")
	query := table.New("query", "name")
	for j := 0; j < 30; j++ {
		v := table.S(fmt.Sprintf("shared-%d", j))
		target.AddRow(v, table.N(float64(j)))
		query.AddRow(v)
	}
	laketest.Add(l, target)

	ix := BuildMinHashLSH(l.Snapshot())
	top := ix.TopK(query, 5)
	if len(top) == 0 || top[0].Table != "target" {
		t.Fatalf("target not retrieved first: %v", top)
	}
}

func TestMinHashTopKBound(t *testing.T) {
	l := buildLake()
	ix := BuildMinHashLSH(l.Snapshot())
	q := table.New("q", "name")
	q.AddRow(table.S("Smith"))
	q.AddRow(table.S("Brown"))
	q.AddRow(table.S("Wang"))
	got := ix.TopK(q, 1)
	if len(got) > 1 {
		t.Errorf("TopK(1) returned %d results", len(got))
	}
}

func TestEstimateJaccardIdentical(t *testing.T) {
	set := []uint32{1, 2, 3}
	if got := estimateJaccard(sketchIDs(set), sketchIDs(set)); got != 1 {
		t.Errorf("identical sets estimate %v, want 1", got)
	}
	other := []uint32{4, 5, 6}
	if got := estimateJaccard(sketchIDs(set), sketchIDs(other)); got > 0.2 {
		t.Errorf("disjoint sets estimate %v, want ~0", got)
	}
}
