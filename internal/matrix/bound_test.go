package matrix

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// TestBoundAdmissible is the pruning soundness property, on randomized
// corpora and engine states: for every candidate, both bounds (plus the
// float-noise margin) dominate the exact EIS delta the candidate would
// score, neither bound is negative, the tight bound never exceeds the loose
// one, a tight bound of exactly zero certifies a bit-exact no-op score, and
// absorbing more winners never raises a loose bound (what lets the heap keep
// stale ones — the tight bound carries no such guarantee and never enters
// the heap).
func TestBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 80; trial++ {
		src, cands := randomCorpus(rng)
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			e := newEngine(context.Background(), src, cands, enc, 1)
			e.reset(&e.cands[0])
			// Advance to a random engine state, checking loose-bound
			// monotonicity across every absorb.
			before := make([]float64, len(cands))
			for i := range e.cands {
				before[i], _ = e.bounds(&e.cands[i])
			}
			for i := 1; i < len(cands) && rng.Intn(2) == 0; i++ {
				e.absorb(&e.cands[i])
				for j := range e.cands {
					after, _ := e.bounds(&e.cands[j])
					if after > before[j] {
						t.Fatalf("trial %d enc %d cand %d: headroom rose %v -> %v after absorb",
							trial, enc, j, before[j], after)
					}
					before[j] = after
				}
			}

			// mostCorrect exactly as the engine computes scores: the current
			// contributions summed in source-row order.
			n := len(e.rowKey)
			mostCorrect := 1.0
			if n > 0 {
				sum := 0.0
				for _, id := range e.rowKey {
					if id >= 0 {
						sum += e.contrib[id]
					}
				}
				mostCorrect = sum / float64(n)
			}
			margin := admissibleMargin(n)
			scratch := make([]float64, e.numKeys)
			copy(scratch, e.contrib)
			arena := new(kernelArena)
			for i := range e.cands {
				loose, tight := e.bounds(&e.cands[i])
				if loose < 0 || tight < 0 {
					t.Fatalf("trial %d enc %d cand %d: negative bound loose=%v tight=%v", trial, enc, i, loose, tight)
				}
				if tight > loose {
					t.Fatalf("trial %d enc %d cand %d: tight bound %v above loose %v", trial, enc, i, tight, loose)
				}
				score := e.scoreCand(&e.cands[i], scratch, arena)
				if score > mostCorrect+tight+margin {
					t.Fatalf("trial %d enc %d cand %d: score %v exceeds tight bound %v + %v + margin",
						trial, enc, i, score, mostCorrect, tight)
				}
				if tight == 0 && score != mostCorrect {
					t.Fatalf("trial %d enc %d cand %d: zero tight bound but score %v != mostCorrect %v",
						trial, enc, i, score, mostCorrect)
				}
			}
		}
	}
}

// exhaustiveScored is the candidate-round count a traversal without pruning
// scores over n candidates when it makes rounds picks: all n for the start
// table, then every remaining candidate in each later round — including the
// last round, which finds no improvement, whenever a candidate remains.
func exhaustiveScored(n, rounds int) int {
	total := n
	for k := 1; k <= rounds && k < n; k++ {
		total += n - k
	}
	return total
}

// TestPrunedMatchesExhaustive pins the pruned engine on random corpora: its
// picks equal TraverseReference's, and its work counters decompose the
// exhaustive total — every candidate-round an engine without pruning would
// score is either scored or pruned, never lost or double-counted.
func TestPrunedMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		src, cands := randomCorpus(rng)
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			want := TraverseReference(src, cands, enc)
			for _, workers := range []int{1, 4} {
				var st TraverseStats
				got := traverse(t, src, cands, enc, TraverseOptions{
					Workers: workers, OnStats: func(s TraverseStats) { st = s },
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d enc %d workers %d: pruned picks %v != reference %v",
						trial, enc, workers, got, want)
				}
				if st.Rounds != len(got) {
					t.Fatalf("trial %d enc %d: %d rounds for %d picks", trial, enc, st.Rounds, len(got))
				}
				if total, ex := st.CandidatesScored+st.CandidatesPruned, exhaustiveScored(len(cands), st.Rounds); total != ex {
					t.Fatalf("trial %d enc %d workers %d: scored %d + pruned %d = %d, exhaustive %d",
						trial, enc, workers, st.CandidatesScored, st.CandidatesPruned, total, ex)
				}
			}
		}
	}
}

// TestBoundHeapOrdering: pop order is (bound desc, index asc) — the
// determinism the round loop's batch composition rests on.
func TestBoundHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		var h boundHeap
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Deliberately few distinct bound values so index ties are common.
			h.push(boundEntry{idx: i, delta: float64(rng.Intn(4))})
		}
		prev := boundEntry{delta: 5, idx: -1}
		for len(h) > 0 {
			e := h.pop()
			if e.delta > prev.delta || (e.delta == prev.delta && e.idx < prev.idx) {
				t.Fatalf("trial %d: pop order violated: %+v after %+v", trial, e, prev)
			}
			prev = e
		}
	}
}
