package discovery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// randomDiscoveryCorpus builds a random source plus a lake of overlapping
// variants — projections, renamed columns, noisy and duplicated values,
// numeric-text spellings — the regime where ranking and verification
// decisions are closest to their thresholds.
func randomDiscoveryCorpus(rng *rand.Rand) (*lake.Lake, *table.Table) {
	nCols := 2 + rng.Intn(3)
	cols := make([]string, nCols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	src := table.New("S", cols...)
	src.Key = []int{0}
	nRows := 5 + rng.Intn(10)
	for r := 0; r < nRows; r++ {
		row := make([]table.Value, nCols)
		row[0] = table.S(fmt.Sprintf("k%d", r))
		for c := 1; c < nCols; c++ {
			switch rng.Intn(5) {
			case 0:
				row[c] = table.Null
			case 1:
				row[c] = table.N(float64(r*10 + c))
			default:
				row[c] = table.S(fmt.Sprintf("v%d_%d", r, c))
			}
		}
		src.AddRow(row...)
	}

	l := lake.New()
	nTables := 4 + rng.Intn(6)
	for ti := 0; ti < nTables; ti++ {
		keep := []int{}
		for c := 0; c < nCols; c++ {
			if c == 0 || rng.Intn(3) != 0 {
				keep = append(keep, c)
			}
		}
		names := make([]string, len(keep))
		for j, c := range keep {
			if rng.Intn(3) == 0 {
				names[j] = fmt.Sprintf("other%d_%d", ti, c) // force schema matching
			} else {
				names[j] = cols[c]
			}
		}
		tab := table.New(fmt.Sprintf("t%d", ti), names...)
		for r := 0; r < nRows; r++ {
			if rng.Intn(5) == 0 {
				continue
			}
			row := make([]table.Value, len(keep))
			for j, c := range keep {
				switch {
				case rng.Intn(8) == 0:
					row[j] = table.Null
				case rng.Intn(8) == 0:
					row[j] = table.S(fmt.Sprintf("noise%d", rng.Intn(30)))
				case src.Rows[r][c].Kind == table.KindNumber && rng.Intn(3) == 0:
					// Same number, different spelling: the cross-kind class
					// both representations must collapse identically.
					row[j] = table.Parse(fmt.Sprintf("%v.0", src.Rows[r][c].Num))
				default:
					row[j] = src.Rows[r][c]
				}
			}
			tab.Rows = append(tab.Rows, row)
		}
		laketest.Add(l, tab)
	}
	return l, src
}

func sameCandidates(t *testing.T, label string, a, b []*Candidate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d candidates vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Fatalf("%s: candidate %d score %v vs %v", label, i, a[i].Score, b[i].Score)
		}
		if fmt.Sprint(a[i].Sources) != fmt.Sprint(b[i].Sources) {
			t.Fatalf("%s: candidate %d sources %v vs %v", label, i, a[i].Sources, b[i].Sources)
		}
		at, bt := a[i].Table, b[i].Table
		if fmt.Sprint(at.Cols) != fmt.Sprint(bt.Cols) {
			t.Fatalf("%s: candidate %d columns %v vs %v", label, i, at.Cols, bt.Cols)
		}
		if len(at.Rows) != len(bt.Rows) {
			t.Fatalf("%s: candidate %d rows %d vs %d", label, i, len(at.Rows), len(bt.Rows))
		}
		for r := range at.Rows {
			if at.Rows[r].Key() != bt.Rows[r].Key() {
				t.Fatalf("%s: candidate %d row %d differs:\n%v\n%v",
					label, i, r, at.Rows[r], bt.Rows[r])
			}
		}
	}
}

// TestDiscoveryIndependentOfShardCount: on random corpora, SetSimilarity and
// the full Discover pipeline must produce bit-identical candidates at every
// shard count of the inverted index and on the one-shot path, with and
// without diversification and subsumption removal.
func TestDiscoveryIndependentOfShardCount(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		l, src := randomDiscoveryCorpus(rng)
		one := index.BuildInvertedSharded(l, 1)

		for _, conf := range []struct {
			name string
			mut  func(*Options)
		}{
			{"default", func(o *Options) {}},
			{"raw", func(o *Options) { o.Diversify = false; o.RemoveSubsumed = false }},
			{"low-tau", func(o *Options) { o.Tau = 0.05 }},
		} {
			opts := DefaultOptions()
			conf.mut(&opts)
			wantSim := SetSimilarity(l, one, src, opts)
			wantAll := DiscoverWith(l, &index.IndexSet{Inverted: one}, src, opts)
			sameCandidates(t, fmt.Sprintf("trial %d %s one-shot", trial, conf.name), Discover(l, src, opts), wantAll)
			for _, nshards := range []int{3, 8} {
				ix := index.BuildInvertedSharded(l, nshards)
				sameCandidates(t, fmt.Sprintf("trial %d %s setsim at %d shards", trial, conf.name, nshards),
					SetSimilarity(l, ix, src, opts), wantSim)
				sameCandidates(t, fmt.Sprintf("trial %d %s discover at %d shards", trial, conf.name, nshards),
					DiscoverWith(l, &index.IndexSet{Inverted: ix}, src, opts), wantAll)
			}
		}
	}
}

// TestForeignDictionaryIndexRefused: an inverted index keyed under any
// dictionary but the pool's own has no meaning over the pool's interned
// forms; discovery refuses it with lake.ErrDictMismatch instead of probing
// it (and SetSimilarity, which cannot report errors, finds nothing).
func TestForeignDictionaryIndexRefused(t *testing.T) {
	l, src := exampleLake(), exampleSource()
	foreign := &index.IndexSet{Inverted: index.BuildInverted(exampleLake())}
	cands, err := DiscoverWithSnapContext(context.Background(), l.Snapshot(), foreign, src, DefaultOptions())
	if !errors.Is(err, lake.ErrDictMismatch) || cands != nil {
		t.Fatalf("foreign-dictionary index: got %v / %v, want lake.ErrDictMismatch", err, cands)
	}
	if cands := SetSimilarity(l, foreign.Inverted, src, DefaultOptions()); cands != nil {
		t.Fatalf("SetSimilarity over a foreign-dictionary index found %v", candidateNames(cands))
	}
}
