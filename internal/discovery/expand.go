package discovery

import (
	"context"
	"encoding/binary"
	"slices"
	"strings"

	"gent/internal/table"
)

// Expand implements Algorithm 5: candidates that lack the Source Table's key
// column(s) are joined, along a join path over the candidate graph, with
// candidates that have them, so that every candidate's tuples can be aligned
// with Source tuples by key value. Following the algorithm's objective, a
// path is chosen to "cover the most source key values": joins are computed
// incrementally along the path and scored by how many distinct Source key
// values the joined result actually contains (summed edge weights alone can
// prefer long paths whose accumulated natural join is empty). Candidates
// with no join path to a key-bearing candidate are dropped — their tuples
// can never be aligned.
//
// Expand runs on interned IDs: edge weights, join matches and key coverage
// compare dictionary IDs, which is Value.Equal (numeric respellings match,
// nulls never join). A candidate discovery assembled carries its row-aligned
// interned form and the dictionary it was interned under; the Source, and
// any candidate carrying no form (or a form under another dictionary), is
// interned through one query-scoped overlay of that dictionary, so IDs from
// two dictionaries never meet.
//
// The path search builds only the joins it extends. A path prefix is held
// as row-index tuples. A step that completes the key ends its path (a leaf),
// so a leaf's join is never built: its key coverage is counted straight from
// the matches of one probe of the leaf's row index. A leaf that carries
// every key column itself is first bounded by its own key coverage (see
// ownCover) and skipped when the bound cannot beat the best path so far. A
// last-level step that would still lack a key column can reach nothing and
// is skipped unjoined. Only the winning leaf's last step is joined, once,
// when the search ends, and a Table is built only for that join. A join
// step whose result would exceed expandMaxRows rows is abandoned while its
// matches are counted, before any row is emitted. Sets of ID tuples — the
// Source's keys, a join's build side, the winning path's distinct rows —
// are idTuples: hashed to a uint64 and confirmed ID by ID, one rule for
// every arity. A join path is at most maxJoinDepth steps long; no option
// changes the expansion, and opts is taken for symmetry with the other
// discovery entry points.
func Expand(cands []*Candidate, src *table.Table, _ Options) []*Candidate {
	out, _, _ := expandContext(context.Background(), cands, src, maxJoinDepth)
	return out
}

// expandContext is Expand under a context with join paths of at most
// maxDepth steps, also returning the path search's work counters: the
// per-candidate join-path search loop checks cancellation before each
// candidate.
func expandContext(ctx context.Context, cands []*Candidate, src *table.Table, maxDepth int) ([]*Candidate, expandStats, error) {
	keyCols := src.KeyCols()
	if len(keyCols) == 0 {
		return cands, expandStats{}, nil
	}

	var x *expander // built at the first key-less candidate: nothing else reads it
	out := make([]*Candidate, 0, len(cands))
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, expandStats{}, err
		}
		if c.Table.HasCols(keyCols...) {
			out = append(out, c)
			continue
		}
		if x == nil {
			x = newExpander(cands, src)
		}
		path, joined := x.bestKeyCoveringJoin(i, maxDepth)
		if path == nil {
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
			Table:   x.materialize(path, joined, proj),
			Sources: dedupeStrings(sources),
			Score:   c.Score,
		})
	}
	if x == nil {
		return out, expandStats{}, nil
	}
	return out, x.stats, nil
}

// expandMaxRows caps intermediate joins so a bad path cannot blow up.
const expandMaxRows = 100000

// maxJoinDepth bounds Expand's join-path length (the paper's configuration).
const maxJoinDepth = 3

// expander is one Expand call's ID forms and memos; none outlives the call.
type expander struct {
	cands   []*Candidate
	keyCols []string
	// forms[i] is cands[i]'s row-aligned interned form. Every form and every
	// srcKeys tuple is in one ID space.
	forms []*table.Interned
	// srcKeys numbers the Source's distinct non-null key tuples, as ID
	// tuples. An ID is a Value.Key class, so these are table.KeyIndex's ids.
	srcKeys *idTuples
	// weights[a*n+b] memoizes the edge weight of candidates a and b; -1 until
	// the DFS first reads it.
	weights []int32
	// indexes memoizes rowIndex by (candidate, columns).
	indexes map[string]*rowIndex
	// own[c] memoizes ownCover(c); -1 until the search first reads it.
	own   []int32
	stats expandStats
	// Scratch that probe, join, leafKeys and the key counts (countKeys)
	// reuse from call to call; leafKeys' refs live until the leaf is
	// counted, and probe's matches until its caller has read them.
	on      []colRef
	bcols   []int
	keys    []colRef
	matches []bucket
	tuple   []uint32
	row     []int32
	seen    []bool
}

// expandStats counts one Expand call's path-search work.
type expandStats struct {
	built   int // joins built: inner path prefixes and each winner's last step
	counted int // leaves whose key coverage was counted without a join
	pruned  int // leaves skipped because their own key coverage cannot win
	skipped int // last-level steps skipped because they would still lack a key column
}

func newExpander(cands []*Candidate, src *table.Table) *expander {
	var dict *table.Dict
	for _, c := range cands {
		if c.carriesForm() {
			dict = c.dict
			break
		}
	}
	if dict == nil {
		dict = table.NewDict()
	}
	o := table.NewOverlay(dict)
	x := &expander{
		cands:   cands,
		keyCols: src.KeyCols(),
		forms:   make([]*table.Interned, len(cands)),
		weights: make([]int32, len(cands)*len(cands)),
		indexes: make(map[string]*rowIndex),
		own:     make([]int32, len(cands)),
	}
	for i, c := range cands {
		if c.carriesForm() && c.dict == dict {
			x.forms[i] = c.form
		} else {
			x.forms[i] = table.InternTable(o, c.Table)
		}
	}
	for i := range x.weights {
		x.weights[i] = -1
	}
	for i := range x.own {
		x.own[i] = -1
	}
	x.srcKeys = newIDTuples(len(src.Key), len(src.Rows))
	tuple := make([]uint32, len(src.Key))
rows:
	for _, r := range src.Rows {
		for i, k := range src.Key {
			if tuple[i] = o.InternValue(r[k]); tuple[i] == table.NullID {
				continue rows
			}
		}
		x.srcKeys.add(tuple)
	}
	return x
}

// carriesForm reports whether c holds a usable interned form: one bound to
// its current table.
func (c *Candidate) carriesForm() bool { return c.form != nil && c.form.Table == c.Table }

// weight is the edge weight of candidates a and b: the number of distinct
// non-null ID tuples they share over their common column names.
func (x *expander) weight(a, b int) int {
	n := len(x.cands)
	if w := x.weights[a*n+b]; w >= 0 {
		return int(w)
	}
	lo, hi := min(a, b), max(a, b)
	tlo, thi := x.cands[lo].Table, x.cands[hi].Table
	shared := table.CommonCols(tlo, thi)
	clo, chi := make([]int, len(shared)), make([]int, len(shared))
	for i, name := range shared {
		clo[i], chi[i] = tlo.ColIndex(name), thi.ColIndex(name)
	}
	w := 0
	switch len(shared) {
	case 0:
	case 1:
		w = table.IntersectIDs(x.forms[lo].ColumnIDs(clo[0]), x.forms[hi].ColumnIDs(chi[0]))
	default:
		// A row index's keys are exactly the distinct non-null tuples.
		small, big := x.rowIndex(lo, clo).keys, x.rowIndex(hi, chi).keys
		if small.len() > big.len() {
			small, big = big, small
		}
		for k := 0; k < small.len(); k++ {
			if big.find(small.tuple(k)) >= 0 {
				w++
			}
		}
	}
	x.weights[a*n+b], x.weights[b*n+a] = int32(w), int32(w)
	return w
}

// rowIndex is the build side of an ID-tuple hash join over one candidate:
// keys numbers the distinct non-null tuples of the indexed columns, and
// tuple k's rows are buckets[k], chained through next in row order.
type rowIndex struct {
	keys    *idTuples
	buckets []bucket
	next    []int32
}

// bucket is one tuple's rows: the first, then next[first], ..., n in all.
type bucket struct{ first, n int32 }

// rowIndex returns candidate c's row index over cols, built on first use.
func (x *expander) rowIndex(c int, cols []int) *rowIndex {
	var buf [64]byte
	key := binary.LittleEndian.AppendUint32(buf[:0], uint32(c))
	for _, col := range cols {
		key = binary.LittleEndian.AppendUint32(key, uint32(col))
	}
	if ix, ok := x.indexes[string(key)]; ok {
		return ix
	}
	refs := make([]colRef, len(cols))
	for i, col := range cols {
		refs[i] = colRef{col: col, ids: x.forms[c].Cols[col]}
	}
	nrows := len(refs[0].ids)
	ix := &rowIndex{keys: newIDTuples(len(cols), nrows), buckets: make([]bucket, 0, nrows), next: make([]int32, nrows)}
	tuple := make([]uint32, len(cols))
	for r := nrows - 1; r >= 0; r-- { // backwards, so each chain runs in row order
		if !gather(tuple, []int32{int32(r)}, refs) {
			continue
		}
		k, added := ix.keys.add(tuple)
		if added {
			ix.buckets = append(ix.buckets, bucket{})
		} else {
			ix.next[r] = ix.buckets[k].first
		}
		ix.buckets[k] = bucket{first: int32(r), n: ix.buckets[k].n + 1}
	}
	x.indexes[string(key)] = ix
	return ix
}

// joined is the natural join along a path prefix, as row-index tuples: tuple
// r is rows[r*width : (r+1)*width], one row index per path table. Its columns
// follow table.InnerJoin's layout — the prefix's columns, then the next
// table's columns the prefix lacks — so an output column takes its value from
// the leftmost path table that has it.
type joined struct {
	cols  []string
	at    []colRef // at[c] supplies cols[c]
	width int
	rows  []int32
}

// colRef is one path table's column: its path position, its index in that
// candidate's table, and its IDs.
type colRef struct {
	pos, col int
	ids      []uint32
}

func (p *joined) len() int { return len(p.rows) / p.width }

func (p *joined) tuple(r int) []int32 { return p.rows[r*p.width : (r+1)*p.width] }

// ref returns the column named name (its first occurrence, as ColIndex
// reads it).
func (p *joined) ref(name string) (colRef, bool) {
	for c, have := range p.cols {
		if have == name {
			return p.at[c], true
		}
	}
	return colRef{}, false
}

// resize sets *buf to n elements, reusing its array when it is large enough;
// the elements' values are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// gather fills dst with the IDs the path tuple holds in refs; it reports
// false at a null.
func gather(dst []uint32, tuple []int32, refs []colRef) bool {
	for i, ref := range refs {
		if dst[i] = ref.ids[tuple[ref.pos]]; dst[i] == table.NullID {
			return false
		}
	}
	return true
}

// start is the one-table path prefix of candidate c.
func (x *expander) start(c int) *joined {
	t := x.cands[c].Table
	p := &joined{cols: t.Cols, at: make([]colRef, len(t.Cols)), width: 1, rows: make([]int32, len(t.Rows))}
	for col := range t.Cols {
		p.at[col] = colRef{pos: 0, col: col, ids: x.forms[c].Cols[col]}
	}
	for r := range p.rows {
		p.rows[r] = int32(r)
	}
	return p
}

// probe matches p's tuples with candidate b's rows on every column of p
// that b also has (nulls never join): x.matches[r] is tuple r's rows of b.
// It returns b's row index on those columns and the number of matches, 0
// when they share no column. It stops counting, with the later matches
// unset, once the number exceeds expandMaxRows.
func (x *expander) probe(p *joined, b int) (*rowIndex, int) {
	tb := x.cands[b].Table
	on, bcols := x.on[:0], x.bcols[:0]
	for _, name := range p.cols {
		if j := tb.ColIndex(name); j >= 0 {
			ref, _ := p.ref(name)
			on = append(on, ref)
			bcols = append(bcols, j)
		}
	}
	x.on, x.bcols = on, bcols
	if len(on) == 0 {
		return nil, 0
	}
	ix := x.rowIndex(b, bcols)
	matches := resize(&x.matches, p.len())
	clear(matches)
	total := 0
	tuple := resize(&x.tuple, len(on))
	for r := range matches {
		if !gather(tuple, p.tuple(r), on) {
			continue
		}
		if k := ix.keys.find(tuple); k >= 0 {
			matches[r] = ix.buckets[k]
			if total += int(matches[r].n); total > expandMaxRows {
				break
			}
		}
	}
	return ix, total
}

// join is p extended by candidate b as table.InnerJoin extends it: on every
// column of p that b also has (nulls never join), p's tuples in order, each
// followed by its matching rows of b in theirs, under p's columns and then
// b's columns p lacks. It is nil when the join is empty or would exceed
// expandMaxRows rows, counted before any is emitted.
func (x *expander) join(p *joined, b int) *joined {
	ix, total := x.probe(p, b)
	if total == 0 || total > expandMaxRows {
		return nil
	}
	tb := x.cands[b].Table
	out := &joined{
		cols:  append(make([]string, 0, len(p.cols)+len(tb.Cols)), p.cols...),
		at:    append(make([]colRef, 0, len(p.cols)+len(tb.Cols)), p.at...),
		width: p.width + 1,
		rows:  make([]int32, 0, total*(p.width+1)),
	}
	for j, name := range tb.Cols {
		if _, shared := p.ref(name); !shared {
			out.cols = append(out.cols, name)
			out.at = append(out.at, colRef{pos: p.width, col: j, ids: x.forms[b].Cols[j]})
		}
	}
	for r, m := range x.matches {
		for br, k := m.first, m.n; k > 0; br, k = ix.next[br], k-1 {
			out.rows = append(append(out.rows, p.tuple(r)...), br)
		}
	}
	x.stats.built++
	return out
}

// leafKeys returns the columns that supply the key of p⋈b, each taken as
// join lays it out: from p when p has it, else from b at path position
// p.width. ok is false when p⋈b would still lack a key column; own reports
// that b has every key column itself. The refs are scratch, valid until
// the next leafKeys.
func (x *expander) leafKeys(p *joined, b int) (keys []colRef, own, ok bool) {
	tb := x.cands[b].Table
	keys, own = x.keys[:0], true
	for _, name := range x.keyCols {
		j := tb.ColIndex(name)
		own = own && j >= 0
		if ref, inP := p.ref(name); inP {
			keys = append(keys, ref)
		} else if j >= 0 {
			keys = append(keys, colRef{pos: p.width, col: j, ids: x.forms[b].Cols[j]})
		} else {
			return nil, false, false
		}
	}
	x.keys = keys
	return keys, own, true
}

// leafCover counts the distinct Source key values p⋈b carries, with keys
// (from leafKeys) supplying its key columns, without building the join: it
// reads each match of one probe as the row join would emit. It is 0 when
// the join is empty or would exceed expandMaxRows rows, as join is nil.
func (x *expander) leafCover(p *joined, b int, keys []colRef) int {
	ix, total := x.probe(p, b)
	if total == 0 || total > expandMaxRows {
		return 0
	}
	x.countKeys(len(keys))
	row := resize(&x.row, p.width+1)
	cover := 0
	for r, m := range x.matches {
		copy(row, p.tuple(r))
		for br, k := m.first, m.n; k > 0; br, k = ix.next[br], k-1 {
			if row[p.width] = br; x.newKey(row, keys) {
				cover++
			}
		}
	}
	return cover
}

// countKeys starts a count of distinct Source keys read through width key
// columns: it clears the keys newKey has marked seen.
func (x *expander) countKeys(width int) {
	resize(&x.tuple, width)
	clear(resize(&x.seen, x.srcKeys.len()))
}

// newKey reports whether path tuple row holds, in keys, a Source key the
// count countKeys started has not seen yet, and marks it seen.
func (x *expander) newKey(row []int32, keys []colRef) bool {
	if !gather(x.tuple, row, keys) {
		return false
	}
	id := x.srcKeys.find(x.tuple)
	if id < 0 || x.seen[id] {
		return false
	}
	x.seen[id] = true
	return true
}

// ownCover is the number of distinct Source key values among candidate c's
// own rows; c has every key column. It bounds the key coverage of any path
// that ends by joining c:
//
//	cover(p⋈c) ≤ ownCover(c)
//
// Proof. Every row of p⋈c combines a row of p with a row of c that holds the
// same ID in every column the two share, and a null joins nothing (an inner
// join only filters and repeats c's rows). A key column p⋈c takes from p is
// such a shared column, since c has every key column; the others it takes
// from c. So every non-null key tuple of p⋈c is the key tuple of some row of
// c, and the Source keys p⋈c covers are among those c covers. A key split
// between p and c has no such bound: c alone covers nothing.
//
// Hence a leaf c whose bound is 0, below the best cover so far, or equal to
// it on a path no shorter than the best one can never replace the best: the
// search skips it unprobed and picks the same winner. The bound is counted
// once per candidate per Expand call.
func (x *expander) ownCover(c int) int {
	if x.own[c] >= 0 {
		return int(x.own[c])
	}
	t := x.cands[c].Table
	refs := make([]colRef, len(x.keyCols))
	for i, name := range x.keyCols {
		refs[i] = colRef{ids: x.forms[c].Cols[t.ColIndex(name)]}
	}
	x.countKeys(len(refs))
	cover := 0
	var row [1]int32
	for r := range refs[0].ids {
		if row[0] = int32(r); x.newKey(row[:], refs) {
			cover++
		}
	}
	x.own[c] = int32(cover)
	return cover
}

// bestKeyCoveringJoin searches simple paths from start (DFS over positive
// edges, bounded depth and branching) and returns the path and join
// covering the most Source key values; nil when none covers any. Ties go
// to the shorter path, then to the first visited. It joins only the prefixes
// it extends: a path ends where it first reaches the key (longer paths only
// risk losing rows), so that last step is counted by leafCover, or skipped
// when ownCover proves it cannot win, and only the winner's is joined, once
// the search ends.
func (x *expander) bestKeyCoveringJoin(start, maxDepth int) ([]int, *joined) {
	var bestPrefix *joined // the winner's join without its last step
	var bestPath []int
	bestCover := 0
	bestLen := 1 << 30

	path := []int{start}
	onPath := make([]bool, len(x.cands))
	onPath[start] = true
	type child struct{ idx, w int }
	kids := make([][]child, maxDepth) // kids[depth] is reused by every node at depth

	// rec visits the children of cur, a prefix that lacks a key column and
	// ends at node, depth steps from start.
	var rec func(cur *joined, node, depth int)
	rec = func(cur *joined, node, depth int) {
		children := kids[depth][:0]
		for next := range x.cands {
			if onPath[next] {
				continue
			}
			if w := x.weight(node, next); w > 0 {
				children = append(children, child{next, w})
			}
		}
		kids[depth] = children
		slices.SortFunc(children, func(a, b child) int {
			if a.w != b.w {
				return b.w - a.w
			}
			return a.idx - b.idx
		})
		if len(children) > 6 {
			children = children[:6]
		}
		for _, ch := range children {
			keys, own, leaf := x.leafKeys(cur, ch.idx)
			if !leaf {
				if depth+1 >= maxDepth {
					x.stats.skipped++
					continue
				}
				j := x.join(cur, ch.idx)
				if j == nil {
					continue
				}
				onPath[ch.idx] = true
				path = append(path, ch.idx)
				rec(j, ch.idx, depth+1)
				path = path[:len(path)-1]
				onPath[ch.idx] = false
				continue
			}
			n := len(path) + 1
			if own {
				if bound := x.ownCover(ch.idx); bound == 0 || bound < bestCover || (bound == bestCover && n >= bestLen) {
					x.stats.pruned++
					continue
				}
			}
			x.stats.counted++
			if cover := x.leafCover(cur, ch.idx, keys); cover > bestCover || (cover == bestCover && cover > 0 && n < bestLen) {
				bestCover, bestLen = cover, n
				bestPrefix = cur
				bestPath = append(append(bestPath[:0], path...), ch.idx)
			}
		}
	}
	if maxDepth > 0 {
		rec(x.start(start), start, 0)
	}
	if bestPath == nil {
		return nil, nil
	}
	return bestPath, x.join(bestPrefix, bestPath[len(bestPath)-1])
}

// materialize builds the distinct rows of p, the join along path, over the
// named columns, skipping names p lacks: table.InnerJoin along path, then
// Project(cols...).DropDuplicates(), with duplicates found by ID tuple (null
// included) before any row is built.
func (x *expander) materialize(path []int, p *joined, cols []string) *table.Table {
	names := make([]string, len(path))
	for i, ci := range path {
		names[i] = x.cands[ci].Table.Name
	}
	var kept []string
	var refs []colRef
	for _, name := range cols {
		if ref, ok := p.ref(name); ok {
			kept = append(kept, name)
			refs = append(refs, ref)
		}
	}
	t := table.New(strings.Join(names, "⋈"), kept...)
	seen := newIDTuples(len(refs), p.len())
	ids := make([]uint32, len(refs))
	var distinct []int // p's first tuple of each distinct row, in order
	for r := 0; r < p.len(); r++ {
		tuple := p.tuple(r)
		for k, ref := range refs {
			ids[k] = ref.ids[tuple[ref.pos]]
		}
		if _, added := seen.add(ids); added {
			distinct = append(distinct, r)
		}
	}
	if len(distinct) == 0 {
		return t
	}
	// One array holds every cell, and each row is a capped slice of it.
	w := len(refs)
	cells := make([]table.Value, len(distinct)*w)
	t.Rows = make([]table.Row, len(distinct))
	for i, r := range distinct {
		tuple := p.tuple(r)
		row := cells[i*w : (i+1)*w : (i+1)*w]
		for k, ref := range refs {
			row[k] = x.cands[path[ref.pos]].Table.Rows[tuple[ref.pos]][ref.col]
		}
		t.Rows[i] = row
	}
	return t
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

// idTuples numbers distinct ID tuples of one width densely, in the order
// they are first added. It is an open-addressing hash table: a tuple's slot
// is searched from its idTupleHash onwards, and every occupied slot on the
// way is confirmed ID by ID, so no byte key is built. A tuple may hold
// NullID; callers that want nulls to match nothing skip such tuples
// themselves.
type idTuples struct {
	width int
	ids   []uint32 // tuple k is ids[k*width : (k+1)*width]
	n     int
	// slots holds 1 + a tuple number, 0 when empty; its length is a power of
	// two at least twice the capacity, so a search always meets an empty
	// slot.
	slots []int32
}

// newIDTuples makes an idTuples for at most capacity distinct tuples. Every
// caller knows that bound: the rows the tuples are taken from.
func newIDTuples(width, capacity int) *idTuples {
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	return &idTuples{width: width, ids: make([]uint32, 0, capacity*width), slots: make([]int32, size)}
}

// idTupleHash hashes an ID tuple by multiply-and-fold, which spreads the
// dense IDs a dictionary assigns over a table's low bits. Any hash gives the
// same results, since every match is confirmed ID by ID; it is a variable so
// that tests can force collisions.
var idTupleHash = func(tuple []uint32) uint64 {
	var h uint64
	for _, id := range tuple {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

func (s *idTuples) len() int { return s.n }

func (s *idTuples) tuple(k int) []uint32 { return s.ids[k*s.width : (k+1)*s.width] }

// slot returns the slot holding tuple, or the empty slot it would take.
func (s *idTuples) slot(tuple []uint32) int {
	mask := len(s.slots) - 1
	for i := int(idTupleHash(tuple)) & mask; ; i = (i + 1) & mask {
		if k := s.slots[i]; k == 0 || slices.Equal(s.tuple(int(k-1)), tuple) {
			return i
		}
	}
}

// find returns tuple's number, or -1 when it was never added.
func (s *idTuples) find(tuple []uint32) int { return int(s.slots[s.slot(tuple)]) - 1 }

// add returns tuple's number, numbering it next when it is new (added).
func (s *idTuples) add(tuple []uint32) (k int, added bool) {
	i := s.slot(tuple)
	if k := s.slots[i]; k != 0 {
		return int(k - 1), false
	}
	if 2*(s.n+1) > len(s.slots) {
		panic("discovery: idTuples over capacity")
	}
	s.ids = append(s.ids, tuple...)
	s.n++
	s.slots[i] = int32(s.n)
	return s.n - 1, true
}
