package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// discover runs DiscoverWithSnapContext over l's current snapshot with
// substrates built fresh for the call, failing t on error.
func discover(t testing.TB, l *lake.Lake, src *table.Table, opts Options) []*Candidate {
	t.Helper()
	return discoverWith(t, l, &index.IndexSet{}, src, opts)
}

// discoverWith is discover over prebuilt (possibly partial) substrates.
func discoverWith(t testing.TB, l *lake.Lake, ix *index.IndexSet, src *table.Table, opts Options) []*Candidate {
	t.Helper()
	cands, err := DiscoverWithSnapContext(context.Background(), l.Snapshot(), ix, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// exampleSource is the running-example Source Table (key "ID").
func exampleSource() *table.Table {
	s := table.New("Source", "ID", "Name", "Age", "Gender", "Education")
	s.Key = []int{0}
	s.AddRow(table.S("id0"), table.S("Smith"), table.N(27), table.Null, table.S("Bachelors"))
	s.AddRow(table.S("id1"), table.S("Brown"), table.N(24), table.S("Male"), table.S("Masters"))
	s.AddRow(table.S("id2"), table.S("Wang"), table.N(32), table.S("Female"), table.S("High School"))
	return s
}

// exampleLake builds a lake holding the running example's tables A, B, C
// (with lake-local column names to exercise schema matching) plus noise.
func exampleLake() *lake.Lake {
	l := lake.New()

	a := table.New("lakeA", "pk", "person", "degree")
	a.AddRow(table.S("id0"), table.S("Smith"), table.S("Bachelors"))
	a.AddRow(table.S("id1"), table.S("Brown"), table.Null)
	a.AddRow(table.S("id2"), table.S("Wang"), table.S("High School"))
	laketest.Add(l, a)

	b := table.New("lakeB", "person", "years")
	b.AddRow(table.S("Smith"), table.N(27))
	b.AddRow(table.S("Brown"), table.N(24))
	b.AddRow(table.S("Wang"), table.N(32))
	laketest.Add(l, b)

	c := table.New("lakeC", "person", "sex")
	c.AddRow(table.S("Smith"), table.S("Male"))
	c.AddRow(table.S("Brown"), table.S("Male"))
	c.AddRow(table.S("Wang"), table.S("Male"))
	laketest.Add(l, c)

	noise := table.New("noise", "fruit", "color")
	noise.AddRow(table.S("apple"), table.S("red"))
	noise.AddRow(table.S("pear"), table.S("green"))
	laketest.Add(l, noise)
	return l
}

func candidateNames(cands []*Candidate) map[string]bool {
	out := make(map[string]bool)
	for _, c := range cands {
		for _, s := range c.Sources {
			out[s] = true
		}
	}
	return out
}

func TestSetSimilarityFindsAndRenames(t *testing.T) {
	l := exampleLake()
	src := exampleSource()
	cands := SetSimilarity(l, index.BuildInverted(l.Snapshot()), src, DefaultOptions())
	names := candidateNames(cands)
	for _, want := range []string{"lakeA", "lakeB", "lakeC"} {
		if !names[want] {
			t.Errorf("candidate %s not discovered (got %v)", want, names)
		}
	}
	if names["noise"] {
		t.Error("noise table discovered as candidate")
	}
	for _, c := range cands {
		if c.Sources[0] == "lakeA" {
			if !c.Table.HasCols("ID", "Name", "Education") {
				t.Errorf("lakeA not renamed to source schema: %v", c.Table.Cols)
			}
		}
		if c.Sources[0] == "lakeB" {
			if !c.Table.HasCols("Name", "Age") {
				t.Errorf("lakeB not renamed: %v", c.Table.Cols)
			}
		}
	}
}

func TestExpandJoinsKeylessCandidates(t *testing.T) {
	l := exampleLake()
	src := exampleSource()
	cands := discover(t, l, src, DefaultOptions())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if !c.Table.HasCols("ID") {
			t.Errorf("candidate from %v lacks the source key after Expand: %v",
				c.Sources, c.Table.Cols)
		}
	}
	// lakeB had no key; its expanded form must involve lakeA (the join path).
	found := false
	for _, c := range cands {
		has := make(map[string]bool)
		for _, s := range c.Sources {
			has[s] = true
		}
		if has["lakeB"] && has["lakeA"] {
			found = true
		}
	}
	if !found {
		t.Error("lakeB was not expanded through lakeA")
	}
}

func TestExpandDropsUnreachableCandidates(t *testing.T) {
	src := exampleSource()
	// A candidate sharing values with the source but sharing no joinable
	// column with any key-bearing candidate must be dropped.
	orphan := &Candidate{
		Table:   table.New("orphan", "Education"),
		Sources: []string{"orphan"},
	}
	orphan.Table.AddRow(table.S("Bachelors"))
	keyed := &Candidate{
		Table:   table.New("keyed", "ID", "Name"),
		Sources: []string{"keyed"},
	}
	keyed.Table.AddRow(table.S("id0"), table.S("Smith"))
	got := Expand([]*Candidate{keyed, orphan}, src, DefaultOptions())
	if len(got) != 1 || got[0].Sources[0] != "keyed" {
		t.Errorf("expected orphan dropped, got %v", candidateNames(got))
	}
}

func TestDiversifyDemotesDuplicates(t *testing.T) {
	// Tables dup1 and dup2 are identical; a third table overlaps less but
	// adds new information. With diversification the duplicate must not
	// both outrank the informative table.
	l := lake.New()
	src := table.New("S", "k", "v")
	src.Key = []int{0}
	for i := 0; i < 10; i++ {
		src.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("v%d", i)))
	}
	mk := func(name string, lo, hi int) *table.Table {
		t := table.New(name, "k", "v")
		for i := lo; i < hi; i++ {
			t.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("v%d", i)))
		}
		return t
	}
	laketest.Add(l, mk("dup1", 0, 8))
	laketest.Add(l, mk("dup2", 0, 8))
	laketest.Add(l, mk("tail", 6, 10)) // contributes k8, k9 that the dups lack

	opts := DefaultOptions()
	cands := SetSimilarity(l, index.BuildInverted(l.Snapshot()), src, opts)
	names := candidateNames(cands)
	if !names["tail"] {
		t.Fatalf("informative table lost: %v", names)
	}
	// The duplicate pair must have been reduced: dup2 (or dup1) is subsumed.
	if names["dup1"] && names["dup2"] {
		t.Errorf("exact duplicate survived subsumption removal: %v", names)
	}
}

func TestSubsumedCandidateRemoval(t *testing.T) {
	big := &Candidate{Table: table.New("big", "Name", "Age"), Sources: []string{"big"}}
	big.Table.AddRow(table.S("Smith"), table.N(27))
	big.Table.AddRow(table.S("Brown"), table.N(24))
	small := &Candidate{Table: table.New("small", "Name"), Sources: []string{"small"}}
	small.Table.AddRow(table.S("Smith"))
	dict := table.NewDict()
	sets := &idSets{internedOf: map[*Candidate]*table.Interned{
		big:   table.InternTable(dict, big.Table),
		small: table.InternTable(dict, small.Table),
	}}
	got := sets.removeSubsumed([]*Candidate{big, small})
	if len(got) != 1 || got[0].Sources[0] != "big" {
		t.Errorf("subsumed candidate survived: %v", candidateNames(got))
	}
}

func TestDiscoverWithFirstStage(t *testing.T) {
	l := exampleLake()
	// Add enough noise to trigger the LSH first stage.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		n := table.New(fmt.Sprintf("bulk%02d", i), "a", "b")
		for j := 0; j < 10; j++ {
			n.AddRow(table.S(fmt.Sprintf("x%d", r.Intn(500))), table.N(float64(r.Intn(500))))
		}
		laketest.Add(l, n)
	}
	opts := DefaultOptions()
	opts.FirstStageTopK = 10
	cands := discover(t, l, exampleSource(), opts)
	names := candidateNames(cands)
	if !names["lakeA"] || !names["lakeB"] {
		t.Errorf("first-stage retrieval lost true candidates: %v", names)
	}
}

func TestMaxCandidatesCap(t *testing.T) {
	l := lake.New()
	src := table.New("S", "k", "v")
	src.Key = []int{0}
	for i := 0; i < 6; i++ {
		src.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("v%d", i)))
	}
	for n := 0; n < 10; n++ {
		// Distinct partial copies so none subsumes another.
		t2 := table.New(fmt.Sprintf("c%d", n), "k", "v")
		i := n % 5
		t2.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("v%d", i)))
		t2.AddRow(table.S(fmt.Sprintf("k%d", i+1)), table.S(fmt.Sprintf("v%d", i+1)))
		t2.AddRow(table.S(fmt.Sprintf("extra%d", n)), table.S(fmt.Sprintf("e%d", n)))
		laketest.Add(l, t2)
	}
	opts := DefaultOptions()
	opts.MaxCandidates = 3
	cands := SetSimilarity(l, index.BuildInverted(l.Snapshot()), src, opts)
	if len(cands) > 3 {
		t.Errorf("cap ignored: %d candidates", len(cands))
	}
}

func TestRenameAvoidsCollisions(t *testing.T) {
	// A lake table with a column literally named "Name" whose values do NOT
	// match the source's Name column must not keep that name.
	src := exampleSource()
	tb := table.New("tricky", "Name", "person")
	tb.AddRow(table.S("not-a-person"), table.S("Smith"))
	tb.AddRow(table.S("also-not"), table.S("Brown"))
	dict := table.NewDict()
	renamed, matched := renameToSourceIDs(tb, table.InternTable(dict, tb), table.InternTable(dict, src), src, 0.2)
	if _, ok := matched["Name"]; !ok {
		t.Fatal("person column should match source Name")
	}
	// The matched "person" column takes the name "Name"; the original
	// "Name" column must have been moved aside.
	if renamed.Cols[0] == "Name" && renamed.Cols[1] == "Name" {
		t.Error("column name collision after rename")
	}
	idx := renamed.ColIndex("Name")
	if idx < 0 || !renamed.Rows[0][idx].Equal(table.S("Smith")) {
		t.Errorf("wrong column carries the source name: %v", renamed.Cols)
	}
}
