package discovery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gent/internal/benchmark"
	"gent/internal/index"
	"gent/internal/table"
)

// This file keeps the string-keyed Expand as the reference the interned one
// is held to: edge weights from an all-pairs distinct-shared-value count, and
// a full table.InnerJoin materialized at every step of every explored path.

// oracleExpand is the string-keyed Algorithm 5: Expand's reference.
func oracleExpand(cands []*Candidate, src *table.Table, maxDepth int) []*Candidate {
	keyCols := src.KeyCols()
	if len(keyCols) == 0 {
		return cands
	}
	hasKey := func(t *table.Table) bool { return t.HasCols(keyCols...) }

	// Edge weights order the DFS children: number of distinct shared join
	// values between candidate tables.
	n := len(cands)
	weights := make([][]int, n)
	for i := range weights {
		weights[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			shared := oracleSharedJoinValues(cands[i].Table, cands[j].Table)
			weights[i][j], weights[j][i] = shared, shared
		}
	}

	srcKeys := table.NewKeyIndex(src)

	out := make([]*Candidate, 0, n)
	for i, c := range cands {
		if hasKey(c.Table) {
			out = append(out, c)
			continue
		}
		joined, path := oracleBestKeyCoveringJoin(i, cands, weights, keyCols, srcKeys, maxDepth)
		if joined == nil {
			continue // unalignable: no join path reaches the Source key
		}
		sources := make([]string, 0, len(path))
		for _, pi := range path {
			sources = append(sources, cands[pi].Sources...)
		}
		// Keep only the key columns and the start candidate's own columns:
		// the join partners are candidates in their own right, and carrying
		// their attribute cells here would duplicate (possibly erroneous)
		// evidence under this candidate's name.
		proj := append([]string(nil), keyCols...)
		for _, col := range c.Table.Cols {
			dup := false
			for _, have := range proj {
				if have == col {
					dup = true
				}
			}
			if !dup {
				proj = append(proj, col)
			}
		}
		out = append(out, &Candidate{
			Table:   joined.Project(proj...).DropDuplicates(),
			Sources: dedupeStrings(sources),
			Score:   c.Score,
		})
	}
	return out
}

// oracleSharedJoinValues counts the distinct non-null join tuples a and b
// share over their common columns (a join tuple with a null never joins).
func oracleSharedJoinValues(a, b *table.Table) int {
	shared := table.CommonCols(a, b)
	if len(shared) == 0 || len(a.Rows) == 0 || len(b.Rows) == 0 {
		return 0
	}
	joinKeys := func(t *table.Table) map[string]bool {
		idx := make([]int, len(shared))
		for i, c := range shared {
			idx[i] = t.ColIndex(c)
		}
		keys := make(map[string]bool)
	rows:
		for _, r := range t.Rows {
			var k strings.Builder
			for _, i := range idx {
				if r[i].IsNull() {
					continue rows
				}
				k.WriteString(r[i].Key())
				k.WriteByte('\x01')
			}
			keys[k.String()] = true
		}
		return keys
	}
	da, db := joinKeys(a), joinKeys(b)
	common := 0
	for k := range da {
		if db[k] {
			common++
		}
	}
	return common
}

// keyCoverage counts how many distinct Source key values appear in t.
func keyCoverage(t *table.Table, srcKeys *table.KeyIndex) int {
	idx, ok := srcKeys.ColsIn(t)
	if !ok {
		return 0
	}
	seen := make([]bool, srcKeys.Len())
	n := 0
	for _, r := range t.Rows {
		if id, ok := srcKeys.Lookup(r, idx); ok && !seen[id] {
			seen[id] = true
			n++
		}
	}
	return n
}

// oracleBestKeyCoveringJoin searches simple paths from start (DFS over
// positive edges, bounded depth and branching), materializing the join along
// the way, and returns the joined table covering the most Source key values.
func oracleBestKeyCoveringJoin(start int, cands []*Candidate, weights [][]int,
	keyCols []string, srcKeys *table.KeyIndex, maxDepth int) (*table.Table, []int) {

	var bestTable *table.Table
	var bestPath []int
	bestCover := 0
	bestLen := 1 << 30

	path := []int{start}
	onPath := map[int]bool{start: true}

	var rec func(cur *table.Table, node, depth int)
	rec = func(cur *table.Table, node, depth int) {
		if cur.HasCols(keyCols...) {
			cover := keyCoverage(cur, srcKeys)
			if cover > bestCover || (cover == bestCover && cover > 0 && len(path) < bestLen) {
				bestCover = cover
				bestLen = len(path)
				bestTable = cur
				bestPath = append([]int(nil), path...)
			}
			return // the key is reached; longer paths only risk losing rows
		}
		if depth >= maxDepth {
			return
		}
		type child struct{ idx, w int }
		children := make([]child, 0)
		for next, w := range weights[node] {
			if w > 0 && !onPath[next] {
				children = append(children, child{next, w})
			}
		}
		sort.Slice(children, func(i, j int) bool {
			if children[i].w != children[j].w {
				return children[i].w > children[j].w
			}
			return children[i].idx < children[j].idx
		})
		if len(children) > 6 {
			children = children[:6]
		}
		for _, ch := range children {
			j := table.InnerJoin(cur, cands[ch.idx].Table)
			if len(j.Rows) == 0 || len(j.Rows) > expandMaxRows {
				continue
			}
			onPath[ch.idx] = true
			path = append(path, ch.idx)
			rec(j, ch.idx, depth+1)
			path = path[:len(path)-1]
			delete(onPath, ch.idx)
		}
	}
	rec(cands[start].Table, start, 0)
	return bestTable, bestPath
}

// expandChooser drives randomExpandCorpus: a *rand.Rand in the seeded test,
// the fuzz input's bytes in FuzzExpandParity.
type expandChooser interface{ Intn(n int) int }

// byteChooser reads one choice per input byte, then zeros.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// randomExpandCorpus builds a Source and candidates over a small shared
// column pool and small value domains — multi-column shared join attributes,
// numeric respellings ("1", "1.0", 1), nulls in join columns, weight ties,
// many children, long chains, unreachable candidates, now and then a
// duplicated column name or a key-less Source — where some candidates carry
// interned forms (under one of two dictionaries, or bound to another table)
// and some carry none.
func randomExpandCorpus(ch expandChooser) (*table.Table, []*Candidate, int) {
	depth := ch.Intn(5) // join depths 0 (no join) to 4
	numeric := func(i int) table.Value {
		switch ch.Intn(3) {
		case 0:
			return table.N(float64(i))
		case 1:
			return table.S(strconv.Itoa(i))
		default:
			return table.Parse(strconv.Itoa(i) + ".0")
		}
	}
	numericKeys := ch.Intn(2) == 0
	key := func(i int) table.Value {
		if numericKeys {
			return numeric(100 + i)
		}
		return table.S(fmt.Sprintf("k%d", i))
	}

	src := table.New("S", "k", "k2", "a0")
	switch ch.Intn(8) {
	case 0: // key-less: Expand has nothing to align to
	case 1, 2:
		src.Key = []int{0, 1}
	default:
		src.Key = []int{0}
	}
	nKeys := 2 + ch.Intn(10)
	for i := 0; i < nKeys; i++ {
		src.AddRow(key(i), numeric(i%3), table.S(fmt.Sprintf("a%d", i)))
	}

	pool := []string{"k", "k2", "j0", "j1", "j2", "a0", "b0"}
	domain := make(map[string]int, len(pool))
	for _, name := range pool {
		domain[name] = 1 + ch.Intn(6)
	}
	domain["k"] = nKeys + 2 // a few foreign keys
	dicts := []*table.Dict{table.NewDict(), table.NewDict()}
	n := 1 + ch.Intn(14)
	cands := make([]*Candidate, n)
	for ci := range cands {
		var cols []string
		for _, name := range pool {
			if name == "k" || name == "k2" {
				if ch.Intn(4) != 0 {
					continue
				}
			} else if ch.Intn(2) == 0 {
				continue
			}
			cols = append(cols, name)
		}
		if len(cols) == 0 {
			cols = append(cols, pool[2+ch.Intn(len(pool)-2)])
		}
		if ch.Intn(16) == 0 {
			cols = append(cols, cols[0]) // a duplicated name: ColIndex reads the first
		}
		name := fmt.Sprintf("c%d", ci)
		tb := table.New(name, cols...)
		for r, nr := 0, ch.Intn(25); r < nr; r++ {
			row := make(table.Row, len(cols))
			for j, col := range cols {
				v := ch.Intn(domain[col])
				switch {
				case ch.Intn(8) == 0:
					row[j] = table.Null
				case col == "k":
					row[j] = key(v)
				case col == "b0":
					row[j] = table.S(fmt.Sprintf("b%d", v))
				default:
					row[j] = numeric(v)
				}
			}
			tb.Rows = append(tb.Rows, row)
		}
		c := &Candidate{Table: tb, Sources: []string{name}, Score: float64(ch.Intn(4)) / 4}
		ch.Intn(4) // a retired per-candidate flag's draw, kept so every seed builds the corpus it always has
		switch ch.Intn(5) {
		case 0, 1: // hand-built: no form
		case 2:
			c.form, c.dict = table.InternTable(dicts[0], tb), dicts[0]
		case 3:
			c.form, c.dict = table.InternTable(dicts[1], tb), dicts[1]
		default: // a form bound to another table is not this candidate's
			c.form, c.dict = table.InternTable(dicts[0], tb.Clone()), dicts[0]
		}
		cands[ci] = c
	}
	return src, cands, depth
}

// expandAt is Expand with join paths of at most depth steps.
func expandAt(cands []*Candidate, src *table.Table, depth int) []*Candidate {
	out, _, _ := expandContext(context.Background(), cands, src, depth)
	return out
}

// sameExpansion fails unless got and want agree on order, Sources, Score,
// and each table's name, columns, key and cell values.
func sameExpansion(t *testing.T, label string, got, want []*Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if fmt.Sprint(g.Sources) != fmt.Sprint(w.Sources) || g.Score != w.Score {
			t.Fatalf("%s: candidate %d is %v/%v, oracle %v/%v",
				label, i, g.Sources, g.Score, w.Sources, w.Score)
		}
		gt, wt := g.Table, w.Table
		if gt.Name != wt.Name || !reflect.DeepEqual(gt.Cols, wt.Cols) || !reflect.DeepEqual(gt.Key, wt.Key) {
			t.Fatalf("%s: candidate %d is %s%v key %v, oracle %s%v key %v",
				label, i, gt.Name, gt.Cols, gt.Key, wt.Name, wt.Cols, wt.Key)
		}
		if len(gt.Rows) != len(wt.Rows) {
			t.Fatalf("%s: candidate %d has %d rows, oracle %d", label, i, len(gt.Rows), len(wt.Rows))
		}
		for r := range wt.Rows {
			for c := range wt.Rows[r] {
				if gv, wv := gt.Rows[r][c], wt.Rows[r][c]; gv.Kind != wv.Kind || gv.Str != wv.Str ||
					gv.ID != wv.ID || math.Float64bits(gv.Num) != math.Float64bits(wv.Num) {
					t.Fatalf("%s: candidate %d cell (%d, %d) is %#v, oracle %#v", label, i, r, c, gv, wv)
				}
			}
		}
	}
}

// TestExpandMatchesOracle holds the interned Expand to the string-keyed
// oracle on random corpora, on a join past expandMaxRows, and on every
// source of TP-TR Small and of a test-scale `wide` corpus through
// DiscoverWithSnapContext. The random trials must prune a leaf by its own
// cover and skip a last-level step somewhere, or a weak generator would let
// a wrong bound pass unseen.
func TestExpandMatchesOracle(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		var work expandStats
		for trial := 0; trial < 150; trial++ {
			src, cands, depth := randomExpandCorpus(rng)
			got, st, _ := expandContext(context.Background(), cands, src, depth)
			sameExpansion(t, fmt.Sprintf("trial %d", trial), got, oracleExpand(cands, src, depth))
			work.built += st.built
			work.counted += st.counted
			work.pruned += st.pruned
			work.skipped += st.skipped
		}
		// The oracle joins every step, so parity holds the own-cover bound
		// and the last-level skip to it only if the trials reach them.
		if work.pruned == 0 || work.skipped == 0 {
			t.Fatalf("the trials never exercise the search's shortcuts: %+v", work)
		}
		t.Logf("search work over the trials: %+v", work)
	})

	t.Run("over-cap", func(t *testing.T) {
		// a⋈b is 320² rows, past the cap in both directions; a still
		// reaches the key through p.
		src := expandSource(8)
		a := table.New("a", "fk", "c", "x")
		b := table.New("b", "c", "y")
		for i := 0; i < 320; i++ {
			a.AddRow(table.S(fmt.Sprintf("fk%d", i%8)), table.S("same"), table.N(float64(i)))
			b.AddRow(table.S("same"), table.N(float64(i)))
		}
		p := table.New("p", "fk", "ok")
		for i := 0; i < 8; i++ {
			p.AddRow(table.S(fmt.Sprintf("fk%d", i)), table.S(fmt.Sprintf("ok%d", i)))
		}
		cands := []*Candidate{{Table: a, Sources: []string{"a"}}, {Table: b, Sources: []string{"b"}}, {Table: p, Sources: []string{"p"}}}
		sameExpansion(t, "over-cap", Expand(cands, src, DefaultOptions()), oracleExpand(cands, src, maxJoinDepth))
	})

	corpus := func(t *testing.T, b *benchmark.TPTR, opts Options) {
		ctx := context.Background()
		snap := b.Lake.Snapshot()
		inv := index.BuildInverted(snap)
		for _, src := range b.Sources {
			pre, err := setSimilarityContext(ctx, snap, inv, src, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DiscoverWithSnapContext(ctx, snap, &index.IndexSet{Inverted: inv}, src, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameExpansion(t, src.Name, got, oracleExpand(pre, src, maxJoinDepth))
		}
	}
	t.Run("tp-tr-small", func(t *testing.T) {
		b, err := benchmark.BuildTPTR("tp-tr-small", benchmark.DefaultTPTROptions())
		if err != nil {
			t.Fatal(err)
		}
		corpus(t, b, DefaultOptions())
	})
	t.Run("wide", func(t *testing.T) {
		// benchmark.BuildWidePreset's recipe at test scale.
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
		opts := DefaultOptions()
		opts.MaxCandidates = 160
		corpus(t, b, opts)
	})
}

// FuzzExpandParity searches for a corpus, derived from the fuzz bytes, on
// which the interned Expand diverges from the string-keyed oracle.
func FuzzExpandParity(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64<<i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, cands, depth := randomExpandCorpus(&byteChooser{data})
		sameExpansion(t, "fuzz", expandAt(cands, src, depth), oracleExpand(cands, src, depth))
	})
}

// TestExpandUnderTupleHashCollisions forces every ID tuple to one hash, so
// each probe of the Source keys, a join's build side and the winning path's
// distinct rows walks a single chain: confirming every match ID by ID must
// leave Expand's picks and materialized tables as they are, and as the
// oracle's.
func TestExpandUnderTupleHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	type trial struct {
		src   *table.Table
		cands []*Candidate
		depth int
		want  []*Candidate
	}
	trials := make([]trial, 30)
	for i := range trials {
		src, cands, depth := randomExpandCorpus(rng)
		trials[i] = trial{src, cands, depth, expandAt(cands, src, depth)}
	}
	defer func(h func([]uint32) uint64) { idTupleHash = h }(idTupleHash)
	idTupleHash = func([]uint32) uint64 { return 0 }
	for i, tr := range trials {
		label := fmt.Sprintf("trial %d", i)
		got := expandAt(tr.cands, tr.src, tr.depth)
		sameExpansion(t, label, got, tr.want)
		sameExpansion(t, label, got, oracleExpand(tr.cands, tr.src, tr.depth))
	}
}
