package discovery

import (
	"context"
	"sort"

	"gent/internal/table"
)

// Expand implements Algorithm 5: candidates that lack the Source Table's key
// column(s) are joined, along a join path over the candidate graph, with
// candidates that have them, so that every candidate's tuples can be aligned
// with Source tuples by key value. Following the algorithm's objective, a
// path is chosen to "cover the most source key values": joins are
// materialized incrementally and scored by how many distinct Source key
// values the joined result actually contains (summed edge weights alone can
// prefer long paths whose accumulated natural join is empty). Candidates
// with no join path to a key-bearing candidate are dropped — their tuples
// can never be aligned.
func Expand(cands []*Candidate, src *table.Table, opts Options) []*Candidate {
	out, _ := expandContext(context.Background(), cands, src, opts)
	return out
}

// expandContext is Expand under a context: the per-candidate join-path
// search loop checks cancellation before each candidate.
func expandContext(ctx context.Context, cands []*Candidate, src *table.Table, opts Options) ([]*Candidate, error) {
	keyCols := src.KeyCols()
	if len(keyCols) == 0 {
		return cands, nil
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
			_, shared := table.EstimateJoinSize(cands[i].Table, cands[j].Table)
			weights[i][j], weights[j][i] = shared, shared
		}
	}

	maxDepth := opts.MaxJoinDepth
	if maxDepth <= 0 {
		maxDepth = 3
	}

	srcKeys := table.NewKeyIndex(src)

	out := make([]*Candidate, 0, n)
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hasKey(c.Table) {
			out = append(out, c)
			continue
		}
		joined, path := bestKeyCoveringJoin(i, cands, weights, keyCols, srcKeys, maxDepth)
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
	return out, nil
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

// expandMaxRows caps intermediate joins so a bad path cannot blow up.
const expandMaxRows = 100000

// bestKeyCoveringJoin searches simple paths from start (DFS over positive
// edges, bounded depth and branching), materializing the join along the way,
// and returns the joined table covering the most Source key values.
func bestKeyCoveringJoin(start int, cands []*Candidate, weights [][]int,
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

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
