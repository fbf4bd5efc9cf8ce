package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzTraverseParity pins the pruned engine's pick sequence against
// TraverseReference on fuzzed corpora: the fuzzer drives the corpus
// generator's seed plus the engine's worker count, so it explores corpus
// shapes (key overlap, contradictions, duplicate candidates, null keys) and
// batch compositions the fixed-seed equivalence suite does not. Any
// divergence — a wrongly pruned winner, a packed-kernel mismatch, a
// tie-break inversion — fails immediately.
func FuzzTraverseParity(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(7), uint8(4))
	f.Add(int64(1<<40), uint8(3))
	f.Add(int64(-9001), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		src, cands := randomCorpus(rng)
		w := int(workers%8) + 1
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			want := TraverseReference(src, cands, enc)
			var stats TraverseStats
			got := traverse(t, src, cands, enc, TraverseOptions{
				Workers: w, OnStats: func(s TraverseStats) { stats = s },
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("enc %d workers %d seed %d: pruned picks %v != reference %v",
					enc, w, seed, got, want)
			}
			if len(want) > 0 && stats.Rounds != len(want) {
				t.Fatalf("enc %d seed %d: %d rounds for %d picks", enc, seed, stats.Rounds, len(want))
			}
		}
	})
}
