package discovery

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gent/internal/table"
)

func expandSource(n int) *table.Table {
	src := table.New("S", "ok", "attr")
	src.Key = []int{0}
	for i := 0; i < n; i++ {
		src.AddRow(table.S(fmt.Sprintf("ok%d", i)), table.S(fmt.Sprintf("v%d", i)))
	}
	return src
}

// TestExpandPrefersKeyCoverage: two possible join partners both give the
// key, but one covers more Source key values — it must win.
func TestExpandPrefersKeyCoverage(t *testing.T) {
	src := expandSource(10)

	start := &Candidate{Table: table.New("start", "fk", "attr"), Sources: []string{"start"}}
	for i := 0; i < 10; i++ {
		start.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("v%d", i)))
	}
	// Partner covering 3 source keys.
	weak := &Candidate{Table: table.New("weak", "fk", "ok"), Sources: []string{"weak"}}
	for i := 0; i < 3; i++ {
		weak.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("ok%d", i)))
	}
	// Partner covering all 10.
	strong := &Candidate{Table: table.New("strong", "fk", "ok"), Sources: []string{"strong"}}
	for i := 0; i < 10; i++ {
		strong.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("ok%d", i)))
	}

	got := Expand([]*Candidate{start, weak, strong}, src, DefaultOptions())
	var expanded *Candidate
	for _, c := range got {
		for _, s := range c.Sources {
			if s == "start" {
				expanded = c
			}
		}
	}
	if expanded == nil {
		t.Fatal("start candidate lost")
	}
	usedStrong := false
	for _, s := range expanded.Sources {
		if s == "strong" {
			usedStrong = true
		}
	}
	if !usedStrong {
		t.Errorf("expansion used %v, want the higher-coverage partner", expanded.Sources)
	}
}

// TestExpandAvoidsDeadEndPaths: a heavier-weighted chain whose accumulated
// natural join collapses must not be preferred over a direct working join.
func TestExpandAvoidsDeadEndPaths(t *testing.T) {
	src := expandSource(5)

	start := &Candidate{Table: table.New("start", "fk", "attr"), Sources: []string{"start"}}
	for i := 0; i < 5; i++ {
		start.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("v%d", i)))
	}
	direct := &Candidate{Table: table.New("direct", "fk", "ok"), Sources: []string{"direct"}}
	for i := 0; i < 5; i++ {
		direct.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("ok%d", i)))
	}
	// A trap sharing many values with start on "fk" and with direct on
	// "ok", but whose combination with both produces a conflicting join.
	trap := &Candidate{Table: table.New("trap", "fk", "ok", "attr"), Sources: []string{"trap"}}
	for i := 0; i < 5; i++ {
		trap.Table.AddRow(
			table.S(fmt.Sprintf("fk%d", i)),
			table.S(fmt.Sprintf("ok%d", i)),
			table.S("CONFLICT"), // disagrees with start's attr values
		)
	}

	got := Expand([]*Candidate{start, direct, trap}, src, DefaultOptions())
	var expanded *Candidate
	for _, c := range got {
		for _, s := range c.Sources {
			if s == "start" {
				expanded = c
			}
		}
	}
	if expanded == nil {
		t.Fatal("start candidate lost entirely")
	}
	cov := 0
	oki := expanded.Table.ColIndex("ok")
	keys := map[string]bool{}
	for _, r := range expanded.Table.Rows {
		if oki >= 0 && !r[oki].IsNull() {
			keys[r[oki].Key()] = true
		}
	}
	cov = len(keys)
	if cov < 5 {
		t.Errorf("expansion covers %d keys, want 5 (dead-end path chosen?)", cov)
	}
}

// TestExpandProjectsPartnerColumnsAway: the expanded table must not carry
// the partner's non-key attributes.
func TestExpandProjectsPartnerColumnsAway(t *testing.T) {
	src := expandSource(3)
	start := &Candidate{Table: table.New("start", "fk", "attr"), Sources: []string{"start"}}
	partner := &Candidate{Table: table.New("partner", "fk", "ok", "junk"), Sources: []string{"partner"}}
	for i := 0; i < 3; i++ {
		start.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("v%d", i)))
		partner.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("ok%d", i)), table.S("junk"))
	}
	got := Expand([]*Candidate{start, partner}, src, DefaultOptions())
	for _, c := range got {
		if len(c.Sources) > 1 && c.Table.ColIndex("junk") >= 0 {
			t.Errorf("partner attribute leaked into expansion: %v", c.Table.Cols)
		}
	}
}

// TestKeyCoverage checks the coverage helper directly.
func TestKeyCoverage(t *testing.T) {
	src := expandSource(4)
	keys := table.NewKeyIndex(src)
	tb := table.New("t", "ok", "x")
	tb.AddRow(table.S("ok0"), table.S("a"))
	tb.AddRow(table.S("ok1"), table.S("b"))
	tb.AddRow(table.S("ok1"), table.S("c"))     // duplicate key counted once
	tb.AddRow(table.S("foreign"), table.S("d")) // not a source key
	tb.AddRow(table.Null, table.S("e"))         // null keys never count
	if got := keyCoverage(tb, keys); got != 2 {
		t.Errorf("coverage = %d, want 2", got)
	}
	if got := keyCoverage(tb.Project("x"), keys); got != 0 {
		t.Errorf("coverage without the key column = %d, want 0", got)
	}
}

// TestExpandAbandonsOverCapJoinEarly: a join step past expandMaxRows is
// dropped while its matches are counted, not after the product is built.
// Two key-less 600-row candidates share one constant column (a 360 000-row
// product in either direction); a reaches the key through p, b reaches
// nothing.
func TestExpandAbandonsOverCapJoinEarly(t *testing.T) {
	src := expandSource(5)
	a := &Candidate{Table: table.New("a", "fk", "c", "x"), Sources: []string{"a"}}
	b := &Candidate{Table: table.New("b", "c", "y"), Sources: []string{"b"}}
	for i := 0; i < 600; i++ {
		a.Table.AddRow(table.S(fmt.Sprintf("fk%d", i%5)), table.S("same"), table.N(float64(i)))
		b.Table.AddRow(table.S("same"), table.N(float64(i)))
	}
	p := &Candidate{Table: table.New("p", "fk", "ok"), Sources: []string{"p"}}
	for i := 0; i < 5; i++ {
		p.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("ok%d", i)))
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := Expand([]*Candidate{a, b, p}, src, DefaultOptions())
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 16 {
		t.Errorf("Expand allocated %.1f MB; an over-cap join must be abandoned before it is built", mb)
	}

	if len(got) != 2 || got[1] != p {
		t.Fatalf("got %d candidates, want a's expansion and p", len(got))
	}
	e := got[0]
	if !reflect.DeepEqual(e.Sources, []string{"a", "p"}) || e.Table.Name != "a⋈p" ||
		!reflect.DeepEqual(e.Table.Cols, []string{"ok", "fk", "c", "x"}) || len(e.Table.Rows) != 600 {
		t.Fatalf("expansion is %v %s%v with %d rows, want [a p] a⋈p[ok fk c x] with 600",
			e.Sources, e.Table.Name, e.Table.Cols, len(e.Table.Rows))
	}
	for i, r := range e.Table.Rows {
		if r[0].Str != fmt.Sprintf("ok%d", i%5) || r[1].Str != fmt.Sprintf("fk%d", i%5) || r[3].Num != float64(i) {
			t.Fatalf("row %d is %v", i, r)
		}
	}
}

// TestExpandBuildsOnlyTheWinner: a key-less candidate with many key-bearing
// partners, each of whose joins is 50 000 rows, must cost about one join,
// not one per partner. Every partner completes the key, so each is a leaf
// whose coverage is counted from its matches; only the winner is joined.
// The allocation is measured against the same start with one partner.
func TestExpandBuildsOnlyTheWinner(t *testing.T) {
	src := expandSource(20)
	start := &Candidate{Table: table.New("start", "fk", "x"), Sources: []string{"start"}}
	for i := 0; i < 500; i++ {
		start.Table.AddRow(table.S(fmt.Sprintf("fk%d", i%10)), table.N(float64(i)))
	}
	// Partner i joins every start row to 100 rows covering ok0..ok9, and
	// carries i+1 more Source keys on values start lacks: its own cover,
	// 11+i, always exceeds the best join cover of 10, so no bound prunes it.
	partner := func(i int) *Candidate {
		name := fmt.Sprintf("p%d", i)
		c := &Candidate{Table: table.New(name, "fk", "ok"), Sources: []string{name}}
		for j := 0; j < 10; j++ {
			for r := 0; r < 100; r++ {
				c.Table.AddRow(table.S(fmt.Sprintf("fk%d", j)), table.S(fmt.Sprintf("ok%d", j)))
			}
		}
		for m := 0; m <= i; m++ {
			c.Table.AddRow(table.S(fmt.Sprintf("zz%d", m)), table.S(fmt.Sprintf("ok%d", 10+m)))
		}
		return c
	}
	allocated := func(cands []*Candidate) (uint64, []*Candidate) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := Expand(cands, src, DefaultOptions())
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, got
	}

	one, _ := allocated([]*Candidate{start, partner(0)})
	cands := []*Candidate{start}
	for i := 0; i < 8; i++ {
		cands = append(cands, partner(i))
	}
	many, got := allocated(cands)
	// One join's tuples are 50 000 × 2 row indexes, 400 kB; six built joins
	// would add 2 MB over the one-partner run.
	if many > one+one/2 {
		t.Errorf("Expand with 8 partners allocated %d kB, with one %d kB: a leaf must be counted, not joined",
			many>>10, one>>10)
	}
	e := got[0]
	if !reflect.DeepEqual(e.Sources, []string{"start", "p0"}) || len(e.Table.Rows) != 500 {
		t.Fatalf("expansion is %v with %d rows, want [start p0] with 500", e.Sources, len(e.Table.Rows))
	}

	x := newExpander(cands, src)
	x.bestKeyCoveringJoin(0, maxJoinDepth)
	if want := (expandStats{built: 1, counted: 6}); x.stats != want {
		t.Errorf("stats = %+v, want %+v", x.stats, want)
	}
}

// TestExpandSearchCounters pins each rule of the path search on a corpus
// built to hit it, through the search's work counters.
func TestExpandSearchCounters(t *testing.T) {
	cand := func(name string, cols []string, rows ...[]string) *Candidate {
		c := &Candidate{Table: table.New(name, cols...), Sources: []string{name}}
		for _, r := range rows {
			row := make(table.Row, len(r))
			for i, v := range r {
				row[i] = table.S(v)
			}
			c.Table.Rows = append(c.Table.Rows, row)
		}
		return c
	}
	// pairs is n rows (a<i>, b<i>) for i < n.
	pairs := func(a, b string, n int) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = []string{fmt.Sprintf("%s%d", a, i), fmt.Sprintf("%s%d", b, i)}
		}
		return out
	}
	search := func(t *testing.T, cands []*Candidate, src *table.Table, depth int, wantPath []int, want expandStats) {
		t.Helper()
		x := newExpander(cands, src)
		path, _ := x.bestKeyCoveringJoin(0, depth)
		if !reflect.DeepEqual(path, wantPath) {
			t.Errorf("path = %v, want %v", path, wantPath)
		}
		if x.stats != want {
			t.Errorf("stats = %+v, want %+v", x.stats, want)
		}
	}

	t.Run("last-level step lacking the key is skipped", func(t *testing.T) {
		cands := []*Candidate{
			cand("start", []string{"fk", "attr"}, pairs("fk", "v", 3)...),
			cand("mid", []string{"fk", "g"}, pairs("fk", "g", 3)...),
			cand("p", []string{"fk", "ok"}, pairs("fk", "ok", 3)...),
		}
		search(t, cands, expandSource(3), 1, []int{0, 2}, expandStats{built: 1, counted: 1, skipped: 1})
	})

	t.Run("own cover below the best is pruned", func(t *testing.T) {
		cands := []*Candidate{
			cand("start", []string{"fk", "attr"}, pairs("fk", "v", 10)...),
			cand("strong", []string{"fk", "ok"}, pairs("fk", "ok", 10)...),
			cand("weak", []string{"fk", "ok"}, pairs("fk", "ok", 3)...),
		}
		search(t, cands, expandSource(10), maxJoinDepth, []int{0, 1}, expandStats{built: 1, counted: 1, pruned: 1})
	})

	t.Run("equal own cover on a longer path is pruned", func(t *testing.T) {
		// start→direct covers 5 in two tables; start→mid→direct and
		// start→mid→leaf could cover 5 at best, in three.
		cands := []*Candidate{
			cand("start", []string{"fk", "attr"}, pairs("fk", "v", 5)...),
			cand("direct", []string{"fk", "ok"}, pairs("fk", "ok", 5)...),
			cand("mid", []string{"fk", "g"}, pairs("fk", "g", 5)...),
			cand("leaf", []string{"g", "ok"}, pairs("g", "ok", 5)...),
		}
		search(t, cands, expandSource(5), maxJoinDepth, []int{0, 1}, expandStats{built: 2, counted: 1, pruned: 2})
	})

	t.Run("composite key split across two tables is counted", func(t *testing.T) {
		src := table.New("S", "k", "k2", "attr")
		src.Key = []int{0, 1}
		for i := 0; i < 5; i++ {
			src.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("j%d", i)), table.S(fmt.Sprintf("v%d", i)))
		}
		start := cand("start", []string{"fk", "k"})
		for i := 0; i < 5; i++ {
			start.Table.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("k%d", i)))
		}
		// Neither partner carries k, so neither has an own cover: the
		// weaker one, visited second, is counted too.
		cands := []*Candidate{
			start,
			cand("wide", []string{"fk", "k2"}, pairs("fk", "j", 5)...),
			cand("narrow", []string{"fk", "k2"}, pairs("fk", "j", 3)...),
		}
		search(t, cands, src, maxJoinDepth, []int{0, 1}, expandStats{built: 1, counted: 2})
	})
}
