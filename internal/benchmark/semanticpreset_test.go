package benchmark

import (
	"context"
	"testing"

	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/table"
)

// discovered returns the set of lake tables the candidate list originates
// from (Sources[0] is the assembled candidate's lake table).
func discovered(cands []*discovery.Candidate) map[string]bool {
	out := make(map[string]bool, len(cands))
	for _, c := range cands {
		for _, s := range c.Sources {
			out[s] = true
		}
	}
	return out
}

// TestSemanticPresetRecall pins the preset's headline claim: on the
// translated twins — zero exact overlap with any source — syntactic
// discovery recalls nothing, the hybrid strategy recalls them, and hybrid
// never loses a table the syntactic channel found.
func TestSemanticPresetRecall(t *testing.T) {
	b, err := BuildSemanticPreset(11)
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Lake.Snapshot()
	ix := index.BuildIndexSetFull(snap, 0, nil)
	discover := func(src *table.Table, opts discovery.Options) map[string]bool {
		cands, err := discovery.DiscoverWithSnapContext(context.Background(), snap, ix, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return discovered(cands)
	}
	// A cap wide enough that the hybrid union is never truncated — with the
	// default 15 the semantic newcomers would displace syntactic candidates,
	// which is the intended trade under a tight cap but not what this test
	// measures.
	synOpts := discovery.DefaultOptions()
	synOpts.MaxCandidates = 60
	hybOpts := synOpts
	hybOpts.Strategy = discovery.StrategyHybrid

	srcs := b.Sources
	if len(srcs) > 6 {
		srcs = srcs[:6]
	}
	var synHits, hybHits, targets int
	for _, src := range srcs {
		twins := b.TranslatedSets[src.Name]
		if len(twins) == 0 {
			t.Fatalf("%s: no translated twins recorded", src.Name)
		}
		targets += len(twins)
		syn := discover(src, synOpts)
		hyb := discover(src, hybOpts)
		for _, tw := range twins {
			if syn[tw] {
				synHits++
			}
			if hyb[tw] {
				hybHits++
			}
		}
		for n := range syn {
			if !hyb[n] {
				t.Errorf("%s: hybrid dropped syntactic candidate %s", src.Name, n)
			}
		}
	}
	if synHits != 0 {
		t.Errorf("syntactic discovery recalled %d/%d translated twins, want 0", synHits, targets)
	}
	if hybHits <= synHits {
		t.Fatalf("hybrid recalled %d/%d translated twins, syntactic %d — no semantic lift", hybHits, targets, synHits)
	}
	t.Logf("translated-twin recall: syntactic %d/%d, hybrid %d/%d", synHits, targets, hybHits, targets)
}
