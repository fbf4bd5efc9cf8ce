// Package discovery implements Gen-T's Table Discovery phase: candidate
// retrieval by exact set similarity (Algorithm 3), candidate diversification
// (Algorithm 4, Equation 10), implicit schema matching by renaming candidate
// columns to the Source columns they align with, subsumed-candidate removal,
// and the Expand join-path search (Algorithm 5) that gives every candidate
// the Source Table's key.
//
// Retrieval is strategy-pluggable (see Strategy): the default syntactic
// channel above, a semantic channel over internal/embed's cosine-LSH
// substrate, or a hybrid that unions and reranks both.
package discovery

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"gent/internal/embed"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// Options tunes discovery.
type Options struct {
	// Tau is the set-overlap threshold τ of Algorithms 3–4; overlap is
	// measured as containment of the Source column's distinct values.
	Tau float64
	// MaxCandidates caps the candidate set handed to Matrix Traversal.
	MaxCandidates int
	// FirstStageTopK, when > 0, runs the MinHash-LSH retriever first (the
	// Starmie stand-in) and restricts Set Similarity to its top-k tables —
	// the configuration used on large lakes.
	FirstStageTopK int
	// MaxJoinDepth bounds Expand's join-path length.
	MaxJoinDepth int
	// Diversify toggles Algorithm 4 (on in Gen-T; the ablation bench turns
	// it off).
	Diversify bool
	// RemoveSubsumed toggles subsumed-candidate removal (Algorithm 3 line
	// 15) — the second redundancy control, disabled together with
	// Diversify in the ablation.
	RemoveSubsumed bool
	// Strategy selects the discovery channel(s); the zero value keeps the
	// purely syntactic pipeline, bit-identical to before strategies existed.
	Strategy Strategy
	// SemanticTau is the minimum cosine for a semantic column match;
	// <= 0 means DefaultSemanticTau.
	SemanticTau float64
	// SemanticTopK caps semantic matches retrieved per Source column;
	// <= 0 means DefaultSemanticTopK.
	SemanticTopK int
	// SemanticWeight scales semantic scores when hybrid-merging into the
	// syntactic ranking; <= 0 means DefaultSemanticWeight.
	SemanticWeight float64
	// Embedder embeds Source columns (and the lake, when no usable prebuilt
	// semantic index is supplied); nil means the built-in embedder.
	Embedder embed.Embedder
	// OnStats, when set, receives per-channel candidate counts once per
	// discovery run, before expansion.
	OnStats func(DiscoverStats)
}

// DefaultOptions mirror the paper's configuration at our scales.
func DefaultOptions() Options {
	return Options{
		Tau:            0.2,
		MaxCandidates:  15,
		MaxJoinDepth:   3,
		Diversify:      true,
		RemoveSubsumed: true,
	}
}

// Candidate is one discovered table, schema-matched to the Source: columns
// that align with Source columns carry the Source column's name.
type Candidate struct {
	// Table is the renamed (and, after Expand, possibly joined) table.
	Table *table.Table
	// Sources lists the lake tables this candidate came from.
	Sources []string
	// Score is the averaged diversified overlap score that ranked it. For a
	// semantic-channel candidate it is the averaged cosine (weighted, under
	// the hybrid strategy).
	Score float64
	// Semantic marks a candidate the semantic channel assembled — its Score
	// is cosine-based and its rows were not aligned-tuple verified.
	Semantic bool
}

// DiscoverWithSnapContext runs the full Table Discovery phase over one
// pinned lake snapshot and returns candidates ranked by score, each
// guaranteed (when possible) to contain the Source key. It is discovery's
// only entry point; the epoch-versioned session calls it with substrates
// maintained for exactly this snapshot's epoch.
//
// A nil member of ix is built fresh over snap for this call. ix.Inverted
// must cover the snapshot; ix.LSH is used for first-stage retrieval when the
// options call for it. The substrates may be stale supersets of the
// snapshot — postings and LSH entries for tables no longer in it are
// ignored — so results match a fresh build exactly. Searches never mutate
// ix, so one IndexSet serves concurrent callers.
//
// Cancellation is checked between stages and inside the per-column probe
// loop, returning ctx.Err() with nil candidates. Substrate builds are not
// preemptible mid-build; cancellation is re-checked after them.
func DiscoverWithSnapContext(ctx context.Context, snap *lake.Snapshot, ix *index.IndexSet, src *table.Table, opts Options) ([]*Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var syn []*Candidate
	if opts.Strategy != StrategySemantic {
		inv := ix.Inverted
		if inv == nil {
			inv = index.BuildInverted(snap)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pool := snap
		if opts.FirstStageTopK > 0 && snap.Len() > opts.FirstStageTopK {
			lsh := ix.LSH
			if lsh == nil {
				lsh = index.BuildMinHashLSH(snap)
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			pool = firstStagePool(snap, lsh, src, opts.FirstStageTopK)
		}
		var err error
		syn, err = setSimilarityContext(ctx, pool, inv, src, opts)
		if err != nil {
			return nil, err
		}
	}
	return finishDiscover(ctx, snap, ix.Semantic, syn, src, opts)
}

// firstStagePool restricts the search pool to the LSH retriever's top-k
// tables. The pool shares the parent snapshot's value dictionary and
// interned forms (IDs must keep meaning the same values as in the index); a
// ranked name can be stale — the LSH index may have been built (or loaded
// from disk) before tables were removed from the lake — and Subset skips
// such names rather than adding them.
func firstStagePool(snap *lake.Snapshot, lsh *index.MinHashLSH, src *table.Table, topK int) *lake.Snapshot {
	ranked := lsh.TopK(src, topK)
	names := make([]string, 0, len(ranked))
	for _, r := range ranked {
		names = append(names, r.Table)
	}
	return snap.Subset(names)
}

// searchColumns probes the inverted index for every non-empty Source column
// concurrently — the per-column probe loop, and discovery's mid-phase
// preemption point: a canceled ctx stops the probes at the next column and
// drains the pool before returning. The result aligns 1:1 with the Source's
// columns; probe must return nil for columns with no distinct values and a
// (possibly empty) non-nil slice otherwise, the distinction the query-column
// denominator rests on.
func searchColumns(ctx context.Context, ncols int, probe func(ci int) []index.Overlap) ([][]index.Overlap, error) {
	done := ctx.Done()
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	out := make([][]index.Overlap, ncols)
	workers := runtime.GOMAXPROCS(0)
	if workers > ncols {
		workers = ncols
	}
	if workers <= 1 {
		for ci := 0; ci < ncols; ci++ {
			if canceled() {
				return nil, ctx.Err()
			}
			out[ci] = probe(ci)
		}
		return out, nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				if canceled() {
					continue // keep draining so the dispatch loop cannot block
				}
				out[ci] = probe(ci)
			}
		}()
	}
	for ci := 0; ci < ncols; ci++ {
		next <- ci
	}
	close(next)
	wg.Wait()
	if canceled() {
		return nil, ctx.Err()
	}
	return out, nil
}

// perColumnCandidate is one lake column qualifying for one Source column.
type perColumnCandidate struct {
	tableName string
	col       int
	// sourceOverlap is |C ∩ c| / |c| (containment of the Source column).
	sourceOverlap float64
	// score is what accumulates into the table ranking: the raw overlap, or
	// the diversified overlap of Equation 10 when diversification is on.
	score float64
}

// SetSimilarity implements Algorithm 3: per-Source-column overlap search,
// diversification, aligned-tuple verification, subsumed-candidate removal
// and schema-matching renames. The returned candidates are ranked by their
// averaged (diversified) overlap scores.
//
// ix may index a superset of pool — a shared whole-lake index while the LSH
// first stage restricts pool, or a persisted index that has outlived table
// removals. Overlaps for tables outside pool are skipped; containment only
// depends on the query and the matched column, so results are identical to a
// pool-only index.
//
// ix must be keyed under the pool's own value dictionary: every set
// operation (probing, diversification, rename matching, aligned-tuple
// verification, subsumption) runs on interned ID sets. An index keyed under
// another dictionary yields no candidates here; the context entry points
// report it as an error wrapping lake.ErrDictMismatch.
func SetSimilarity(pool *lake.Lake, ix *index.Inverted, src *table.Table, opts Options) []*Candidate {
	cands, _ := setSimilarityContext(context.Background(), pool.Snapshot(), ix, src, opts)
	return cands
}

// setSimilarityContext is SetSimilarity under a context; cancellation
// preempts the per-column probe loop and the per-table verification scan.
func setSimilarityContext(ctx context.Context, pool *lake.Snapshot, ix *index.Inverted, src *table.Table, opts Options) ([]*Candidate, error) {
	if ix.Dict() != pool.Dict() {
		return nil, fmt.Errorf("discovery: %w: inverted index is keyed under a different dictionary than the lake's",
			lake.ErrDictMismatch)
	}
	sets := newIDSets(pool, ix, src, opts.Tau)

	type agg struct {
		sum float64
		n   int
	}
	scores := make(map[string]*agg)
	queryCols := 0

	// Per-column index probes are independent and dominate retrieval cost on
	// wide sources, so they fan out over a worker pool; score accumulation
	// below stays in column order to keep the ranking deterministic.
	overlapsByCol, err := searchColumns(ctx, len(src.Cols), sets.probe)
	if err != nil {
		return nil, err
	}

	for ci := range src.Cols {
		overlaps := overlapsByCol[ci]
		if overlaps == nil {
			continue
		}
		queryCols++
		// Best qualifying column per table, in overlap order.
		seen := make(map[string]bool)
		ranked := make([]perColumnCandidate, 0, len(overlaps))
		for _, o := range overlaps {
			if seen[o.Ref.Table] || o.Containment < opts.Tau {
				continue
			}
			if pool.Get(o.Ref.Table) == nil {
				continue // indexed but not in the search pool
			}
			seen[o.Ref.Table] = true
			ranked = append(ranked, perColumnCandidate{
				tableName:     o.Ref.Table,
				col:           o.Ref.Col,
				sourceOverlap: o.Containment,
				score:         o.Containment,
			})
		}
		if opts.Diversify {
			ranked = diversify(ranked, sets.prevOverlap)
		}
		// Algorithm 3 line 8: accumulate the (diversified) overlap scores.
		for _, pc := range ranked {
			a := scores[pc.tableName]
			if a == nil {
				a = &agg{}
				scores[pc.tableName] = a
			}
			a.sum += pc.score
			a.n++
		}
	}

	// Rank tables by average score, descending (Algorithm 3 line 9). The
	// average is over all of the Source's (non-empty) columns, so a table
	// overlapping many Source columns outranks one that perfectly matches a
	// single column — coverage matters as much as overlap strength.
	type rankedTable struct {
		name  string
		score float64
	}
	if queryCols == 0 {
		return nil, nil
	}
	order := make([]rankedTable, 0, len(scores))
	for name, a := range scores {
		order = append(order, rankedTable{name, a.sum / float64(queryCols)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].name < order[j].name
	})

	// Alignment verification, renaming, and candidate assembly. Each table's
	// verification rescans its rows, so this loop is preemptible too.
	cands := make([]*Candidate, 0, len(order))
	for _, rt := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, ok := sets.assemble(rt.name)
		if !ok {
			continue
		}
		c.Score = rt.score
		cands = append(cands, c)
		if opts.MaxCandidates > 0 && len(cands) >= opts.MaxCandidates {
			break
		}
	}
	if opts.RemoveSubsumed {
		cands = sets.removeSubsumed(cands)
	}
	return cands, nil
}

// idSets is the value-set representation Set Similarity runs on: the Source
// is interned once per query — through a query-scoped overlay, so source
// values the lake has never seen do not grow the shared dictionary — and
// every set operation runs on sorted ID slices, so no value string is hashed
// or built anywhere in the search.
type idSets struct {
	pool *lake.Snapshot
	ix   *index.Inverted
	src  *table.Table
	// q is the Source interned against the pool/index dictionary (overlaid).
	q   *table.Interned
	tau float64
	// internedOf carries each assembled candidate's interned form (shared
	// with its pool table — renames preserve row order) to removeSubsumed.
	internedOf map[*Candidate]*table.Interned
}

func newIDSets(pool *lake.Snapshot, ix *index.Inverted, src *table.Table, tau float64) *idSets {
	return &idSets{
		pool:       pool,
		ix:         ix,
		src:        src,
		q:          table.InternTable(table.NewOverlay(ix.Dict()), src),
		tau:        tau,
		internedOf: make(map[*Candidate]*table.Interned),
	}
}

// probe searches the index with Source column ci's distinct values; nil when
// the column has none (a non-nil empty result still counts the column into
// the score denominator). Safe for the concurrent probe fan-out.
func (s *idSets) probe(ci int) []index.Overlap {
	ids := s.q.ColumnIDs(ci)
	if len(ids) == 0 {
		return nil
	}
	return s.ix.SearchIDs(ids)
}

func (s *idSets) colIDs(name string, col int) []uint32 {
	return s.pool.Interned(name).ColumnIDs(col)
}

// prevOverlap is Equation 10's penalty term for diversification:
// |prev ∩ cur| / |cur| over the two pool columns' distinct values.
func (s *idSets) prevOverlap(prev, cur perColumnCandidate) float64 {
	curIDs := s.colIDs(cur.tableName, cur.col)
	if len(curIDs) == 0 {
		return 0
	}
	return colOverlapIDs(s.colIDs(prev.tableName, prev.col), curIDs)
}

// assemble schema-matches and verifies one ranked pool table, returning its
// candidate (Score left for the caller) or ok=false to drop it.
func (s *idSets) assemble(name string) (*Candidate, bool) {
	t := s.pool.Get(name)
	if t == nil {
		return nil, false
	}
	it := s.pool.Interned(name)
	renamed, matched := renameToSourceIDs(t, it, s.q, s.src, s.tau)
	if len(matched) == 0 {
		return nil, false
	}
	if !alignedTuplesQualifyIDs(it, s.q, s.src, matched, s.tau) {
		return nil, false
	}
	c := &Candidate{Table: renamed, Sources: []string{name}}
	s.internedOf[c] = it
	return c, true
}

// removeSubsumed drops any candidate whose columns and column values are all
// contained in another candidate (Algorithm 3 line 15). Containment is
// checked over every column, not just the source-matched ones: on
// low-cardinality columns a noisy variant can cover a clean one's matched
// value sets even though its other cells differ, and pruning the clean table
// there would be wrong. Exact duplicates keep the higher-ranked copy.
func (s *idSets) removeSubsumed(cands []*Candidate) []*Candidate {
	sets := make([]map[string][]uint32, len(cands)) // cand -> colName -> sorted IDs
	for i, c := range cands {
		it := s.internedOf[c]
		m := make(map[string][]uint32, len(c.Table.Cols))
		for ci, name := range c.Table.Cols {
			m[name] = it.ColumnIDs(ci)
		}
		sets[i] = m
	}
	contains := func(big, small map[string][]uint32) bool {
		for name, vals := range small {
			b, ok := big[name]
			if !ok {
				return false
			}
			if !table.ContainsIDs(b, vals) {
				return false
			}
		}
		return true
	}
	out := make([]*Candidate, 0, len(cands))
	for i, c := range cands {
		subsumed := false
		for j := range cands {
			if i == j {
				continue
			}
			if contains(sets[j], sets[i]) {
				if contains(sets[i], sets[j]) && i < j {
					continue // duplicates: keep the earlier (higher ranked) one
				}
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	return out
}

// colOverlapIDs measures |a ∩ b| / |b| over sorted distinct ID slices.
func colOverlapIDs(a, b []uint32) float64 {
	if len(b) == 0 {
		return 0
	}
	return float64(table.IntersectIDs(a, b)) / float64(len(b))
}

// diversify implements Algorithm 4: re-score a Source column's candidates so
// each has high overlap with the Source but low overlap with the previous
// candidate (Equation 10), demoting near-duplicate tables. The adjusted
// scores are what Algorithm 3 accumulates into the table ranking;
// prevOverlap supplies Equation 10's penalty term.
func diversify(ranked []perColumnCandidate, prevOverlap func(prev, cur perColumnCandidate) float64) []perColumnCandidate {
	if len(ranked) <= 1 {
		return ranked
	}
	out := make([]perColumnCandidate, 0, len(ranked))
	for i, pc := range ranked {
		if i == 0 {
			// The top candidate keeps its raw overlap.
			out = append(out, pc)
			continue
		}
		// Equation 10's penalty demotes near-duplicates; clamping at zero
		// keeps it from turning into an active penalty that could sink a
		// genuinely needed table below unrelated junk (variants of the same
		// original legitimately overlap each other).
		pc.score = pc.sourceOverlap - prevOverlap(ranked[i-1], pc)
		if pc.score < 0 {
			pc.score = 0
		}
		out = append(out, pc)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	return out
}

// renamePair is one (candidate column, Source column) containment match
// feeding the greedy schema-matching assignment.
type renamePair struct {
	tCol, sCol int
	overlap    float64
}

// renameToSourceIDs matches candidate columns to Source columns by
// containment and renames matched columns (implicit schema matching); it
// (the candidate's interned form) and q (the Source's) supply the column
// sets. The greedy assignment is one-to-one, highest containment first.
// Unmatched candidate columns keep their names unless they collide with a
// Source column name, in which case they get a "~" suffix so later unions
// cannot confuse them. matched maps Source column name -> candidate column
// index (pre-rename).
func renameToSourceIDs(t *table.Table, it, q *table.Interned, src *table.Table, tau float64) (*table.Table, map[string]int) {
	pairs := make([]renamePair, 0)
	for tc := range t.Cols {
		tids := it.ColumnIDs(tc)
		for sc := range src.Cols {
			if ov := colOverlapIDs(tids, q.ColumnIDs(sc)); ov >= tau {
				pairs = append(pairs, renamePair{tc, sc, ov})
			}
		}
	}
	return assignRename(t, src, pairs)
}

// assignRename is the greedy one-to-one assignment, highest containment
// first, then the rename itself.
func assignRename(t, src *table.Table, pairs []renamePair) (*table.Table, map[string]int) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].overlap != pairs[j].overlap {
			return pairs[i].overlap > pairs[j].overlap
		}
		if pairs[i].sCol != pairs[j].sCol {
			return pairs[i].sCol < pairs[j].sCol
		}
		return pairs[i].tCol < pairs[j].tCol
	})
	tTaken := make(map[int]bool)
	sTaken := make(map[int]bool)
	matched := make(map[string]int)
	rename := make(map[string]string)
	for _, p := range pairs {
		if tTaken[p.tCol] || sTaken[p.sCol] {
			continue
		}
		tTaken[p.tCol] = true
		sTaken[p.sCol] = true
		matched[src.Cols[p.sCol]] = p.tCol
		rename[t.Cols[p.tCol]] = src.Cols[p.sCol]
	}
	// Avoid accidental collisions for unmatched columns.
	for tc, name := range t.Cols {
		if tTaken[tc] {
			continue
		}
		if _, collides := rename[name]; collides {
			continue // this name is being remapped from this column anyway
		}
		if src.ColIndex(name) >= 0 {
			rename[name] = name + "~"
		}
	}
	return t.Rename(rename), matched
}

// alignedTuplesQualifyIDs implements Algorithm 3 lines 11–14: keep only rows
// of the candidate whose matched-column values appear in the Source, and
// verify that within those rows at least one matched column still overlaps
// the Source column above τ. The candidate's interned form it is row-aligned
// with the (renamed) candidate, so membership checks read precomputed IDs
// instead of hashing Value.Key.
func alignedTuplesQualifyIDs(it, q *table.Interned, src *table.Table, matched map[string]int, tau float64) bool {
	type mc struct {
		tCol int
		set  map[uint32]bool // source column's distinct IDs
		size int
	}
	mcs := make([]mc, 0, len(matched))
	for sName, tCol := range matched {
		ids := q.ColumnIDs(src.ColIndex(sName))
		set := make(map[uint32]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		mcs = append(mcs, mc{tCol, set, len(ids)})
	}
	alignedSets := make([]map[uint32]bool, len(mcs))
	for i := range alignedSets {
		alignedSets[i] = make(map[uint32]bool)
	}
	for ri := 0; ri < len(it.Table.Rows); ri++ {
		aligned := false
		for _, m := range mcs {
			id := it.Cols[m.tCol][ri]
			if id != table.NullID && m.set[id] {
				aligned = true
				break
			}
		}
		if !aligned {
			continue
		}
		for i, m := range mcs {
			id := it.Cols[m.tCol][ri]
			if id != table.NullID && m.set[id] {
				alignedSets[i][id] = true
			}
		}
	}
	for i, m := range mcs {
		if m.size > 0 && float64(len(alignedSets[i]))/float64(m.size) >= tau {
			return true
		}
	}
	return false
}
