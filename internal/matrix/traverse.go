package matrix

import (
	"context"
	"runtime"
	"slices"
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
	return TraverseKeyed(ctx, src, table.NewKeyIndex(src), cands, enc, opts)
}

// TraverseKeyed is TraverseContext over keys, an index the caller already
// built over src (table.NewKeyIndex(src)) and shares with the query's other
// layers.
func TraverseKeyed(ctx context.Context, src *table.Table, keys *table.KeyIndex, cands []*table.Table, enc Encoding, opts TraverseOptions) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := newEngine(ctx, newShape(src, keys), cands, enc, opts.Workers)
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
// word. It is compact: its size follows the rows that align, not the
// Source's key count.
type candidate struct {
	// touched lists the key ids with aligned tuples, in ascending order.
	touched []int32
	// off[k]:off[k+1] is touched[k]'s range of tuples.
	off []int32
	// tuples holds the packed aligned tuples, key by key in touched order
	// and in row order within a key.
	tuples []ptuple
	// ones[k*pwords:(k+1)*pwords] is the OR of touched[k]'s 1-code masks —
	// the static half of the tight pruning bound's per-key α cap (bound.go).
	ones []uint64
}

// list returns touched[k]'s packed tuples, capped so that no append can
// reach the next key's.
func (c *candidate) list(k int) []ptuple {
	return c.tuples[c.off[k]:c.off[k+1]:c.off[k+1]]
}

// onesOf returns touched[k]'s 1-code mask, pwords long.
func (c *candidate) onesOf(k, pwords int) []uint64 {
	return c.ones[k*pwords : (k+1)*pwords : (k+1)*pwords]
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
	// combinedOnes[id] caches orOnes over combined[id] — the dynamic half of
	// the tight pruning bound — refreshed alongside contrib; nil for keys the
	// integration has no tuples for.
	combinedOnes [][]uint64
}

func newEngine(ctx context.Context, shape *Shape, cands []*table.Table, enc Encoding, workers int) *engine {
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
	e := &engine{shape: shape, workers: workers, ctx: ctx}
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
	scratch := make([]packScratch, workers)
	// A canceled ctx may leave candidates unpacked; TraverseKeyed checks
	// ctx before the engine is used.
	_ = par.For(ctx, len(cands), workers, func(worker, i int) {
		e.cands[i] = e.packCandidate(cands[i], enc, &scratch[worker])
	})
	return e
}

// packScratch is one packing worker's scratch, reused across the
// candidates it packs.
type packScratch struct {
	// count[id] counts the candidate's rows aligned with key id, then marks
	// where id's rows end in order; it is all zeros between candidates.
	count []int32
	// ids[i] is row i's key id, -1 when the row aligns with none.
	ids []int32
	// touched lists the key ids the candidate's rows align with.
	touched []int32
	// order lists the aligned rows by key id, in row order within a key.
	order []int32
	// words and tups hold the encoded tuples before duplicates are dropped.
	words []uint64
	tups  []ptuple
}

// packCandidate aligns and encodes one candidate table per Equation 4,
// emitting the engine's packed form directly — FromTable fused with the
// word packing. The code values, the cached α−δ, and the duplicate-tuple
// skipping match FromTable exactly (byte-equal packed words iff equal int8
// codes), so the engine scores the same tuples the reference does. Each row
// is looked up once; a counting pass then orders the aligned rows by key id
// (row order kept within a key), and they are encoded into sc. What the
// candidate keeps is sized by what survives: one slice of touched ids and
// offsets, one of tuples, and one word slab holding the tuples' words and
// then the keys' 1-code masks — so the GC sees a handful of objects, and
// nothing the candidate keeps grows with the Source's key count.
func (e *engine) packCandidate(cand *table.Table, enc Encoding, sc *packScratch) candidate {
	s := e.shape
	src := s.Src
	colMap, keyMap, ok := s.align(cand)
	if !ok {
		return candidate{} // cannot align without the key
	}
	if len(sc.count) < e.numKeys {
		sc.count = make([]int32, e.numKeys)
	}
	count, ids, touched := sc.count, sc.ids[:0], sc.touched[:0]
	for _, r := range cand.Rows {
		id, ok := s.keys.Lookup(r, keyMap)
		if !ok {
			ids = append(ids, -1)
			continue
		}
		if count[id] == 0 {
			touched = append(touched, int32(id))
		}
		count[id]++
		ids = append(ids, int32(id))
	}
	slices.Sort(touched)
	// count[id] becomes where id's rows start in order, then, once they are
	// placed, where they end.
	aligned := int32(0)
	for _, id := range touched {
		n := count[id]
		count[id] = aligned
		aligned += n
	}
	order := slices.Grow(sc.order[:0], int(aligned))[:aligned]
	for i, id := range ids {
		if id >= 0 {
			order[count[id]] = int32(i)
			count[id]++
		}
	}
	sc.ids, sc.touched, sc.order = ids, touched, order

	ix := make([]int32, 2*len(touched)+1)
	c := candidate{touched: ix[:len(touched)], off: ix[len(touched):len(touched)]}
	copy(c.touched, touched)

	// Encode into scratch: words is sized once, so the tuples' sub-slices
	// stay valid while the later keys are encoded.
	pw := s.pwords
	words := slices.Grow(sc.words[:0], int(aligned)*pw)
	tups := sc.tups[:0]
	start := int32(0)
	for _, id := range touched {
		end := count[id]
		count[id] = 0
		c.off = append(c.off, int32(len(tups)))
		srow := src.Rows[s.keys.Rep(int(id))]
		for _, i := range order[start:end] {
			r := cand.Rows[i]
			at := len(words)
			words = words[:at+pw]
			code := words[at:]
			clear(code)
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
					// Contradiction: differing non-nulls, or a non-null
					// where the Source has a (correct) null.
					if enc == ThreeValued {
						b = 0xFF
						if !s.isKey[j] {
							ad--
						}
					}
				}
				if b != 0 {
					code[j>>3] |= b << ((j & 7) * 8)
				}
			}
			if dupPacked(tups[c.off[len(c.off)-1]:], code) {
				words = words[:at]
				continue
			}
			tups = append(tups, ptuple{words: code[:pw:pw], ad: ad})
		}
		start = end
	}
	c.off = append(c.off, int32(len(tups)))
	sc.words, sc.tups = words, tups

	// Copy what survived into the candidate's own storage.
	c.tuples = make([]ptuple, len(tups))
	slab := make([]uint64, (len(tups)+len(touched))*pw)
	copy(slab, words)
	for i, t := range tups {
		c.tuples[i] = ptuple{words: slab[i*pw : (i+1)*pw : (i+1)*pw], ad: t.ad}
	}
	c.ones = slab[len(tups)*pw:]
	for k := range touched {
		orOnes(c.onesOf(k, pw), c.list(k))
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

	// Per-worker scratch, indexed by key id: zeros while the standalone
	// scan runs, then a mirror of the contribution cache.
	scratch := make([][]float64, e.workers)
	for p := range scratch {
		scratch[p] = make([]float64, e.numKeys)
	}

	// GetStartTable: the candidate with the best standalone score, scored
	// concurrently (standalone EIS reads only cached α−δ counts). No bound
	// helps here — with nothing integrated yet every candidate must be
	// looked at once.
	scores := make([]float64, n)
	err := par.For(e.ctx, n, e.workers, func(worker, i int) { scores[i] = e.standalone(&e.cands[i], scratch[worker]) })
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
	arenas := make([]*kernelArena, e.workers)
	for p := range scratch {
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
// The touched keys' contributions go into scratch (all zeros on entry, and
// again on return), and every source row adds its key's slot in row order:
// a key the candidate does not touch adds 0, as Matrix.EIS's empty list
// does, so the sum is bit-identical.
func (e *engine) standalone(c *candidate, scratch []float64) float64 {
	n := len(e.rowKey)
	if n == 0 {
		return 1
	}
	for k, id := range c.touched {
		scratch[id] = e.shape.contributionPacked(c.list(k))
	}
	sum := 0.0
	for _, id := range e.rowKey {
		if id >= 0 {
			sum += scratch[id]
		}
	}
	for _, id := range c.touched {
		scratch[id] = 0
	}
	return sum / float64(n)
}

// reset starts the engine from the start candidate's raw lists (the
// reference's `combined := mats[start]`), caching per-key contributions.
func (e *engine) reset(c *candidate) {
	e.combined = make([][]ptuple, e.numKeys)
	e.contrib = make([]float64, e.numKeys)
	e.combinedOnes = make([][]uint64, e.numKeys)
	for k, id := range c.touched {
		e.combined[id] = c.list(k)
		e.contrib[id] = e.shape.contributionPacked(e.combined[id])
		// The start candidate's own mask is exact here and absorb never
		// mutates a candidate's masks, so sharing it is safe.
		e.combinedOnes[id] = c.onesOf(k, e.shape.pwords)
	}
}

// absorb folds the round winner into the engine — the round's only
// materialization, so its merged tuples come from the heap, not an arena —
// refreshing just the keys the winner touches.
func (e *engine) absorb(c *candidate) {
	pw := e.shape.pwords
	for k, id := range c.touched {
		e.combined[id] = e.shape.combinePacked(nil, e.combined[id], c.list(k))
		e.contrib[id] = e.shape.contributionPacked(e.combined[id])
		// Recompute rather than OR in the winner's mask: normalize can drop
		// whole tuples, so the fresh mask is at least as tight.
		e.combinedOnes[id] = orOnes(make([]uint64, pw), e.combined[id])
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
	for k, id := range c.touched {
		ar.reset()
		scratch[id] = e.shape.contributionPacked(e.shape.combinePacked(ar, e.combined[id], c.list(k)))
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
