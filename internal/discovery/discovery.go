// Package discovery implements Gen-T's Table Discovery phase: candidate
// retrieval by exact set similarity (Algorithm 3), candidate diversification
// (Algorithm 4, Equation 10), implicit schema matching by renaming candidate
// columns to the Source columns they align with, subsumed-candidate removal,
// and the Expand join-path search (Algorithm 5) that gives every candidate
// the Source Table's key.
package discovery

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/par"
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
	// Diversify toggles Algorithm 4 (on in Gen-T; the ablation bench turns
	// it off).
	Diversify bool
	// RemoveSubsumed toggles subsumed-candidate removal (Algorithm 3 line
	// 15) — the second redundancy control, disabled together with
	// Diversify in the ablation.
	RemoveSubsumed bool
}

// DefaultOptions mirror the paper's configuration at our scales.
func DefaultOptions() Options {
	return Options{
		Tau:            0.2,
		MaxCandidates:  15,
		Diversify:      true,
		RemoveSubsumed: true,
	}
}

// Candidate is one discovered table, schema-matched to the Source: columns
// that align with Source columns carry the Source column's name.
type Candidate struct {
	// Table is the renamed (and, after Expand, possibly joined) table. Its
	// rows are shared with the lake and read-only: take a Clone to write.
	Table *table.Table
	// Sources lists the lake tables this candidate came from.
	Sources []string
	// Score is the averaged diversified overlap score that ranked it.
	Score float64

	// form is the interned form of Table (renames keep row order) and dict
	// the dictionary its IDs come from, carried from assembly so subsumption
	// and Expand never re-intern; nil on hand-built and expanded candidates.
	form *table.Interned
	dict *table.Dict
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
	cands, err := setSimilarityContext(ctx, pool, inv, src, opts)
	if err != nil {
		return nil, err
	}
	out, _, err := expandContext(ctx, cands, src, maxJoinDepth)
	return out, err
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
// diversification, schema-matching renames (which imply the aligned-tuple
// check, see assemble) and subsumed-candidate removal. The returned
// candidates are ranked by their averaged (diversified) overlap scores.
//
// ix may index a superset of pool — a shared whole-lake index while the LSH
// first stage restricts pool, or a persisted index that has outlived table
// removals. Overlaps for tables outside pool are skipped; containment only
// depends on the query and the matched column, so results are identical to a
// pool-only index.
//
// ix must be keyed under the pool's own value dictionary: every set
// operation (probing, diversification, rename matching, subsumption) runs
// on interned ID sets. An index keyed under another dictionary yields no
// candidates here; the context entry points report it as an error wrapping
// lake.ErrDictMismatch.
func SetSimilarity(pool *lake.Lake, ix *index.Inverted, src *table.Table, opts Options) []*Candidate {
	cands, _ := setSimilarityContext(context.Background(), pool.Snapshot(), ix, src, opts)
	return cands
}

// setSimilarityContext is SetSimilarity under a context; cancellation
// preempts the per-column probe loop and the per-table assembly loop.
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
	// below stays in column order to keep the ranking deterministic. The
	// probe loop is discovery's mid-phase preemption point: a canceled ctx
	// stops it at the next column.
	overlapsByCol := make([][]index.Overlap, len(src.Cols))
	err := par.For(ctx, len(src.Cols), runtime.GOMAXPROCS(0), func(_, ci int) {
		overlapsByCol[ci] = sets.probe(ci)
	})
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

	// Renaming and candidate assembly. Each table's rename matching
	// intersects its columns with the Source's, so this loop is preemptible
	// too.
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
}

func newIDSets(pool *lake.Snapshot, ix *index.Inverted, src *table.Table, tau float64) *idSets {
	return &idSets{
		pool: pool,
		ix:   ix,
		src:  src,
		q:    table.InternTable(table.NewOverlay(ix.Dict()), src),
		tau:  tau,
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

// assemble schema-matches one ranked pool table, returning its candidate
// (Score left for the caller) or ok=false to drop it: a table none of whose
// matched Source columns holds a value.
//
// That one condition is Algorithm 3's row check (lines 11–14), which keeps
// the rows whose matched-column values appear in the Source and passes the
// table when, over those rows, some matched column still covers at least τ
// of its Source column's distinct values. A row holding a Source value in
// matched column c is such a row, so c covers |distinct(c) ∩ Source column|
// of them: the containment renameToSourceIDs matched c by, which is ≥ τ.
// The check therefore passes every table with a matched Source column that
// has a value, and fails one whose matched Source columns are all null,
// which only τ ≤ 0 can match.
func (s *idSets) assemble(name string) (*Candidate, bool) {
	t := s.pool.Get(name)
	if t == nil {
		return nil, false
	}
	it := s.pool.Interned(name)
	renamed, matched := renameToSourceIDs(t, it, s.q, s.src, s.tau)
	valued := false
	for sName := range matched {
		valued = valued || len(s.q.ColumnIDs(s.src.ColIndex(sName))) > 0
	}
	if !valued {
		return nil, false
	}
	return &Candidate{Table: renamed, Sources: []string{name}, form: it.Retargeted(renamed), dict: s.pool.Dict()}, true
}

// removeSubsumed drops any candidate whose columns and column values are all
// contained in another candidate (Algorithm 3 line 15). Containment is
// checked over every column, not just the source-matched ones: on
// low-cardinality columns a noisy variant can cover a clean one's matched
// value sets even though its other cells differ, and pruning the clean table
// there would be wrong. Exact duplicates keep the higher-ranked copy.
func (s *idSets) removeSubsumed(cands []*Candidate) []*Candidate {
	// cols[i][n] is the index in cands[i] of the column named names[n], -1
	// when cands[i] lacks it.
	names := make(map[string]int)
	for _, c := range cands {
		for _, name := range c.Table.Cols {
			if _, ok := names[name]; !ok {
				names[name] = len(names)
			}
		}
	}
	cols := make([][]int, len(cands))
	for i, c := range cands {
		cols[i] = make([]int, len(names))
		for n := range cols[i] {
			cols[i][n] = -1
		}
		for ci, name := range c.Table.Cols {
			cols[i][names[name]] = ci
		}
	}
	// contains reports whether candidate b has every column of candidate a,
	// each holding all of a's values there.
	contains := func(b, a int) bool {
		for n, ac := range cols[a] {
			if ac < 0 {
				continue
			}
			bc := cols[b][n]
			if bc < 0 || !table.ContainsIDs(cands[b].form.ColumnIDs(bc), cands[a].form.ColumnIDs(ac)) {
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
			if contains(j, i) {
				if contains(i, j) && i < j {
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
// feeding renameToSourceIDs' greedy assignment.
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
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].overlap != pairs[j].overlap {
			return pairs[i].overlap > pairs[j].overlap
		}
		if pairs[i].sCol != pairs[j].sCol {
			return pairs[i].sCol < pairs[j].sCol
		}
		return pairs[i].tCol < pairs[j].tCol
	})
	tTaken := make([]bool, len(t.Cols))
	sTaken := make([]bool, len(src.Cols))
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
