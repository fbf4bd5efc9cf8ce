package matrix

import (
	"context"
	"runtime"
	"sort"

	"gent/internal/par"
	"gent/internal/table"
)

// TraverseOptions tunes the traversal engine.
type TraverseOptions struct {
	// Workers bounds the engine's scoring pool: candidate encoding and each
	// greedy round's candidate scoring fan out over this many goroutines.
	// <= 0 uses GOMAXPROCS.
	Workers int
	// Dict is ignored: candidate rows align through the Source's own
	// table.KeyIndex, which needs no value dictionary. The field remains so
	// existing callers compile.
	Dict table.Interner
	// OnRound, when non-nil, is called after every greedy pick: round is
	// 1-based (round 1 picks the start table), pick is the winning candidate
	// index, and score is the simulated integration's EIS after absorbing it.
	// It is called from the traversing goroutine, between rounds.
	OnRound func(round, pick int, score float64)
	// OnStats, when non-nil, receives the traversal's work counters after a
	// successful traversal (not on cancellation). Called once, from the
	// traversing goroutine.
	OnStats func(TraverseStats)
}

// TraverseStats counts the work a traversal did. In every greedy round each
// then-remaining candidate is either scored (its exact EIS delta computed) or
// pruned (its admissible upper bound proved it could not beat the round
// leader, so exact scoring was skipped); candidates remaining across R rounds
// count R times, so Scored+Pruned equals what an exhaustive traversal would
// have scored and the two fields decompose the same total.
type TraverseStats struct {
	// CandidatesScored counts exact candidate scorings, including the
	// standalone scan that picks the start table.
	CandidatesScored int
	// CandidatesPruned counts candidate-rounds skipped by the bound.
	CandidatesPruned int
	// Rounds is the number of greedy picks (round 1 picks the start table).
	Rounds int
}

// TraverseContext implements Algorithm 1: given candidate tables (renamed,
// keyed), greedily pick the subset whose simulated integration maximizes
// EIS, stopping when adding any remaining candidate no longer improves it.
// It returns the indices of the originating tables, in pick order. Whatever
// the worker count, the pick sequence is identical to TraverseReference's:
// every exact score is the bit-exact EIS its materialized combination would
// have, pruning only skips candidates whose margin-widened admissible bound
// cannot reach the round leader, and the round winner resolves to the lowest
// candidate index among the top scores.
//
// Cancellation is checked at every greedy round boundary and polled inside
// the scoring pool, so a canceled traversal stops within one round: the pool
// drains cleanly (no goroutine outlives the call) and ctx.Err() is returned
// with nil picks.
func TraverseContext(ctx context.Context, src *table.Table, cands []*table.Table, enc Encoding, opts TraverseOptions) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := newEngine(ctx, src, cands, enc, opts.Workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.onRound = opts.OnRound
	picked, err := e.traverse()
	if err != nil {
		return nil, err
	}
	if opts.OnStats != nil {
		opts.OnStats(e.stats)
	}
	return picked, nil
}

// candidate is one candidate matrix re-indexed for the engine: bit-packed
// aligned-tuple lists addressed by dense source-key id instead of key string,
// so scoring never hashes a key and the per-key kernel runs 8 columns per
// word.
type candidate struct {
	// lists[id] holds the candidate's packed aligned tuples for source key id;
	// nil when the candidate does not touch that key.
	lists [][]ptuple
	// ones[id] is the OR of lists[id]'s 1-code masks — the static half of the
	// tight pruning bound's per-key α cap (bound.go).
	ones [][]uint64
	// touched lists the key ids with aligned tuples, in ascending order.
	touched []int
}

// engine is the incremental, parallel traversal state for one source: the
// combined integration so far as per-key packed tuple lists, plus each key's
// cached Equation 3 contribution under it. A candidate is scored by
// re-running the per-key Equation 5 kernel on only the keys it touches —
// against arena-backed throwaway lists, into a per-worker scratch of
// contributions — and summing scratch in source-row order. That reproduces,
// float-add for float-add, the EIS of the materialized Combine without
// building it; losers allocate no matrix, and only the round winner's touched
// keys are folded into the engine. Rounds additionally prune: candidates come
// off a max-heap of stale admissible bounds (bound.go), and scoring stops the
// moment the best remaining bound cannot beat the round leader.
type engine struct {
	shape   *Shape
	workers int

	// ctx is the traversal context, polled at every round boundary and by
	// the scoring pool before each claim. A canceled traversal stops within
	// one round.
	ctx context.Context
	// onRound, when non-nil, observes every greedy pick.
	onRound func(round, pick int, score float64)
	// stats counts scored/pruned candidate-rounds and greedy rounds.
	stats TraverseStats

	// rowKey maps each source row to its dense key id, -1 when the row's key
	// contains a null (such rows align with nothing). It aliases the shape's
	// KeyIndex row ids — matrices are keyed by the same dense ids, so the
	// engine re-indexes nothing.
	rowKey []int
	// numKeys is the size of the dense key id space.
	numKeys int
	// keyCount[id] is the number of source rows carrying key id — the overlap
	// cardinality the admissible bound weighs each touched key by.
	keyCount []int

	cands []candidate

	// combined[id] is the current integration's packed tuple list for key id.
	combined [][]ptuple
	// contrib[id] caches contribution(combined[id]).
	contrib []float64
	// combinedOnes[id] caches onesMask(combined[id]) — the dynamic half of
	// the tight pruning bound — refreshed alongside contrib; nil for keys the
	// integration has no tuples for.
	combinedOnes [][]uint64
}

func newEngine(ctx context.Context, src *table.Table, cands []*table.Table, enc Encoding, workers int) *engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// No pool (or scratch mirror) can ever be wider than the candidate set.
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	e := &engine{shape: NewShape(src), workers: workers, ctx: ctx}
	e.rowKey = e.shape.keys.RowIDs()
	e.numKeys = e.shape.numKeys()
	e.keyCount = make([]int, e.numKeys)
	for _, id := range e.rowKey {
		if id >= 0 {
			e.keyCount[id]++
		}
	}

	// Encode every candidate concurrently, straight into packed form: rows
	// align to dense source-key ids and code into 8-columns-per-word tuples
	// with no intermediate int8 matrix (packCandidate).
	e.cands = make([]candidate, len(cands))
	// A canceled ctx may leave candidates unpacked; TraverseContext checks
	// ctx before the engine is used.
	_ = par.For(ctx, len(cands), workers, func(_, i int) {
		e.cands[i] = e.packCandidate(cands[i], enc)
	})
	return e
}

// packCandidate aligns and encodes one candidate table per Equation 4,
// emitting the engine's packed form directly — FromTable fused with the
// word packing. The code values, the cached α−δ, and the duplicate-tuple
// skipping match FromTable exactly (byte-equal packed words iff equal int8
// codes), so the engine scores the same tuples the reference does; only the
// allocation shape differs: every aligned tuple's words live in one
// per-candidate slab sized by the row count, so encoding a row allocates
// nothing and the GC sees one object instead of thousands.
func (e *engine) packCandidate(cand *table.Table, enc Encoding) candidate {
	s := e.shape
	src := s.Src
	c := candidate{lists: make([][]ptuple, e.numKeys), ones: make([][]uint64, e.numKeys)}
	colMap, keyMap, ok := s.align(cand)
	if !ok {
		return c // cannot align without the key
	}

	// The aligned tuple count is bounded by the row count, so one slab holds
	// every tuple's words without ever reallocating — handed-out sub-slices
	// stay valid for the engine's lifetime.
	slab := make([]uint64, 0, len(cand.Rows)*s.pwords)
	scratch := make([]uint64, s.pwords)
	for _, r := range cand.Rows {
		id, ok := s.keys.Lookup(r, keyMap)
		if !ok {
			continue
		}
		srow := src.Rows[s.keys.Rep(id)]
		for w := range scratch {
			scratch[w] = 0
		}
		ad := 0
		for j := range src.Cols {
			var cv table.Value
			if colMap[j] >= 0 {
				cv = r[colMap[j]]
			} else {
				cv = table.Null
			}
			var b uint64
			switch {
			case srow[j].Equal(cv):
				b = 0x01
				if !s.isKey[j] {
					ad++
				}
			case !srow[j].IsNull() && cv.IsNull():
				// 0x00: nullified.
			default:
				// Contradiction: differing non-nulls, or a non-null where
				// the Source has a (correct) null.
				if enc == ThreeValued {
					b = 0xFF
					if !s.isKey[j] {
						ad--
					}
				}
			}
			if b != 0 {
				scratch[j>>3] |= b << ((j & 7) * 8)
			}
		}
		if dupPacked(c.lists[id], scratch) {
			continue
		}
		start := len(slab)
		slab = append(slab, scratch...)
		c.lists[id] = append(c.lists[id], ptuple{words: slab[start : start+s.pwords], ad: ad})
	}
	for id, list := range c.lists {
		if list != nil {
			c.touched = append(c.touched, id)
			c.ones[id] = onesMask(list, s.pwords)
		}
	}
	return c
}

// dupPacked reports whether words matches some tuple already in list — the
// packed form of appendCoded's duplicate skip.
func dupPacked(list []ptuple, words []uint64) bool {
outer:
	for i := range list {
		for w, v := range list[i].words {
			if v != words[w] {
				continue outer
			}
		}
		return true
	}
	return false
}

func (e *engine) traverse() ([]int, error) {
	n := len(e.cands)
	if n == 0 {
		return nil, nil
	}

	// GetStartTable: the candidate with the best standalone score, scored
	// concurrently (standalone EIS reads only cached α−δ counts). No bound
	// helps here — with nothing integrated yet every candidate must be
	// looked at once.
	scores := make([]float64, n)
	err := par.For(e.ctx, n, e.workers, func(_, i int) { scores[i] = e.standalone(&e.cands[i]) })
	if err != nil {
		return nil, err
	}
	e.stats.CandidatesScored += n
	start, startScore := -1, -1.0
	for i, s := range scores {
		if s > startScore {
			start, startScore = i, s
		}
	}
	if start < 0 {
		return nil, nil
	}
	picked := []int{start}
	e.stats.Rounds = 1
	if e.onRound != nil {
		e.onRound(1, start, startScore)
	}
	e.reset(&e.cands[start])
	mostCorrect := startScore

	// Per-worker scratch mirrors the contribution cache; scoreCand restores
	// its touched slots after each candidate, and absorb refreshes only the
	// winner's touched slots, so the mirrors stay exact without per-round
	// full copies. Arenas hold each worker's throwaway merge tuples.
	scratch := make([][]float64, e.workers)
	arenas := make([]*kernelArena, e.workers)
	for p := range scratch {
		scratch[p] = make([]float64, e.numKeys)
		copy(scratch[p], e.contrib)
		arenas[p] = new(kernelArena)
	}
	return e.traversePruned(picked, start, mostCorrect, scratch, arenas)
}

// traversePruned runs the greedy rounds with bound-and-prune: remaining
// candidates live in a max-heap ordered by (possibly stale) admissible
// headroom; each round pops entries while the top's bound could still beat
// the round leader, refreshes the popped entry's bounds — gating exact
// scoring on the tighter 1-mask bound — and exact-scores batches of
// survivors in parallel. When the top's stale bound fails the threshold,
// everything below it fails too and the round charges the rest to
// CandidatesPruned without touching them. Stale bounds are sound because
// the loose headroom never increases across rounds (absorbing a winner only
// raises per-key contributions), and the float-noise margin plus the
// zero-headroom certificate keep every pick bit-identical to
// TraverseReference (see bound.go).
func (e *engine) traversePruned(picked []int, start int, mostCorrect float64, scratch [][]float64, arenas []*kernelArena) ([]int, error) {
	n := len(e.cands)
	margin := admissibleMargin(len(e.rowKey))
	heap := make(boundHeap, 0, n-1)
	for i := 0; i < n; i++ {
		if i != start {
			heap.push(boundEntry{idx: i, delta: e.looseBound(&e.cands[i])})
		}
	}
	// processed collects this round's popped entries (with bounds refreshed
	// this round) so they re-enter the heap for the next round exactly once.
	processed := make([]boundEntry, 0, n-1)
	batch := make([]boundEntry, 0, e.workers)
	batchScores := make([]float64, e.workers)
	round := 1
	for len(heap) > 0 {
		// Round boundary: the named preemption point. The scoring pool below
		// also polls, so even a wide round stops promptly and drains cleanly.
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		roundStart := len(heap)
		processed = processed[:0]
		best, bestIdx := mostCorrect, -1
		scored := 0
		for len(heap) > 0 && passes(heap[0].delta, mostCorrect, best, margin) {
			// Pop up to a worker-pool's width of entries whose refreshed
			// bounds still pass; the refresh is O(touched·pwords) and gates on
			// the tight 1-mask bound, which keeps the exact scorer off both
			// candidates the stale bound flattered and candidates the lift-to-1
			// cap never could separate from the leader. The heap keeps the
			// loose bound — the only one admissible across rounds.
			batch = batch[:0]
			for len(heap) > 0 && len(batch) < e.workers && passes(heap[0].delta, mostCorrect, best, margin) {
				ent := heap.pop()
				ent.delta = e.looseBound(&e.cands[ent.idx])
				// The tight word scan runs only on candidates the refreshed
				// loose bound failed to prune (tight ≤ loose, so a failed
				// loose gate already decides).
				if passes(ent.delta, mostCorrect, best, margin) &&
					passes(e.tightBound(&e.cands[ent.idx]), mostCorrect, best, margin) {
					batch = append(batch, ent)
				} else {
					processed = append(processed, ent)
				}
			}
			if len(batch) == 0 {
				continue
			}
			err := par.For(e.ctx, len(batch), e.workers, func(worker, j int) {
				batchScores[j] = e.scoreCand(&e.cands[batch[j].idx], scratch[worker], arenas[worker])
			})
			if err != nil {
				return nil, err
			}
			scored += len(batch)
			for j := range batch {
				s, idx := batchScores[j], batch[j].idx
				// The reference winner is the lowest index among the top
				// scores (its scan is in index order with a strict >); batch
				// composition varies with worker count, so resolve ties by
				// index explicitly to stay order-independent.
				if s > best || (s == best && bestIdx >= 0 && idx < bestIdx) {
					best, bestIdx = s, idx
				}
				processed = append(processed, batch[j])
			}
		}
		e.stats.CandidatesScored += scored
		e.stats.CandidatesPruned += roundStart - scored
		if bestIdx < 0 {
			break // integration found no more of S's values: converged
		}
		picked = append(picked, bestIdx)
		e.absorb(&e.cands[bestIdx])
		for _, id := range e.cands[bestIdx].touched {
			for p := range scratch {
				scratch[p][id] = e.contrib[id]
			}
		}
		mostCorrect = best
		round++
		e.stats.Rounds = round
		if e.onRound != nil {
			e.onRound(round, bestIdx, best)
		}
		// Re-enter this round's popped entries (their refreshed bounds are
		// still admissible: absorb only raised contributions); entries never
		// popped keep their stale bounds where they sit.
		for _, ent := range processed {
			if ent.idx != bestIdx {
				heap.push(ent)
			}
		}
	}
	return picked, nil
}

// standalone is the candidate's own EIS: its raw (unnormalized, uncombined)
// aligned-tuple lists evaluated per source row, exactly as Matrix.EIS does.
func (e *engine) standalone(c *candidate) float64 {
	n := len(e.rowKey)
	if n == 0 {
		return 1
	}
	sum := 0.0
	for _, id := range e.rowKey {
		if id >= 0 {
			sum += e.shape.contributionPacked(c.lists[id])
		}
	}
	return sum / float64(n)
}

// reset starts the engine from the start candidate's raw lists (the
// reference's `combined := mats[start]`), caching per-key contributions.
func (e *engine) reset(c *candidate) {
	e.combined = make([][]ptuple, e.numKeys)
	copy(e.combined, c.lists)
	e.contrib = make([]float64, e.numKeys)
	e.combinedOnes = make([][]uint64, e.numKeys)
	for id, list := range e.combined {
		e.contrib[id] = e.shape.contributionPacked(list)
		if list != nil {
			// The start candidate's own mask is exact here and absorb never
			// mutates a candidate's masks, so sharing it is safe.
			e.combinedOnes[id] = c.ones[id]
		}
	}
}

// absorb folds the round winner into the engine — the round's only
// materialization, so its merged tuples come from the heap, not an arena —
// refreshing just the keys the winner touches.
func (e *engine) absorb(c *candidate) {
	for _, id := range c.touched {
		e.combined[id] = e.shape.combinePacked(nil, e.combined[id], c.lists[id])
		e.contrib[id] = e.shape.contributionPacked(e.combined[id])
		// Recompute rather than OR in the winner's mask: normalize can drop
		// whole tuples, so the fresh mask is at least as tight.
		e.combinedOnes[id] = onesMask(e.combined[id], e.shape.pwords)
	}
}

// scoreCand is the delta scorer: EIS(Combine(combined, c)) computed without
// building the combined matrix. Touched keys re-run the per-key Equation 5
// kernel into the worker's scratch — merge tuples land in the worker's arena
// and die with the call — and untouched keys keep their cached contribution
// already sitting there. The row-order summation reproduces EIS's float
// arithmetic bit-for-bit. scratch must equal the engine's contribution cache
// on entry, and is restored before returning.
func (e *engine) scoreCand(c *candidate, scratch []float64, ar *kernelArena) float64 {
	n := len(e.rowKey)
	if n == 0 {
		return 1
	}
	for _, id := range c.touched {
		ar.reset()
		scratch[id] = e.shape.contributionPacked(e.shape.combinePacked(ar, e.combined[id], c.lists[id]))
	}
	sum := 0.0
	for _, id := range e.rowKey {
		if id >= 0 {
			sum += scratch[id]
		}
	}
	for _, id := range c.touched {
		scratch[id] = e.contrib[id]
	}
	return sum / float64(n)
}

// TraverseReference is the pre-engine Algorithm 1: every round materializes
// Combine(combined, mats[i]) and rescans it with EIS for every remaining
// candidate, sequentially. It is retained as the equivalence oracle for the
// engine (see equivalence tests and FuzzTraverseParity) and runs entirely on
// the unpacked int8 kernel, so it also cross-checks the packed one. Pick
// sequences are identical by construction.
func TraverseReference(src *table.Table, cands []*table.Table, enc Encoding) []int {
	shape := NewShape(src)
	mats := make([]*Matrix, len(cands))
	for i, c := range cands {
		mats[i] = FromTable(shape, c, enc)
	}

	remaining := make(map[int]bool, len(cands))
	for i := range cands {
		remaining[i] = true
	}

	// GetStartTable: the candidate with the best standalone score.
	start, startScore := -1, -1.0
	for i := range cands {
		if s := mats[i].EIS(); s > startScore {
			start, startScore = i, s
		}
	}
	if start < 0 {
		return nil
	}
	picked := []int{start}
	delete(remaining, start)
	combined := mats[start]
	mostCorrect := startScore

	for len(remaining) > 0 {
		next, nextScore := -1, mostCorrect
		var nextCombined *Matrix
		// Deterministic iteration order.
		order := make([]int, 0, len(remaining))
		for i := range remaining {
			order = append(order, i)
		}
		sort.Ints(order)
		for _, i := range order {
			mc := Combine(combined, mats[i])
			if s := mc.EIS(); s > nextScore {
				next, nextScore, nextCombined = i, s, mc
			}
		}
		if next < 0 {
			break
		}
		picked = append(picked, next)
		delete(remaining, next)
		combined, mostCorrect = nextCombined, nextScore
	}
	return picked
}
