package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gent/internal/embed"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// layeredCase adapts one wrapper of the layered banded-LSH core (W, over
// payload P) to the shared maintenance spec.
type layeredCase[W, P any] struct {
	build func(*lake.Snapshot) W
	delta func(ix W, added, removed []*table.Interned) W
	core  func(W) *banded[P]
	probe func(ix W, q *table.Table) any
	// roundTrip saves and reloads an index under dict; nil for a wrapper
	// that is never persisted.
	roundTrip func(ix W, dict *table.Dict) (W, error)
}

// TestLayeredLSHMatchesRebuild is the one maintenance spec of the layered
// core, run through both wrappers: a seeded program of add / drop / replace /
// rename / re-add-after-drop mutations, long enough to drop override-resident
// tables and to cross the compaction threshold, where after every step the
// maintained index must answer like a fresh build over the same snapshot,
// persist like one (the persisted wrapper), and have left its receiver
// exactly as it was.
func TestLayeredLSHMatchesRebuild(t *testing.T) {
	t.Run("minhash", func(t *testing.T) {
		runLayeredSpec(t, layeredCase[*MinHashLSH, signature]{
			build: func(s *lake.Snapshot) *MinHashLSH { return BuildMinHashLSH(s) },
			delta: (*MinHashLSH).WithDelta,
			core:  func(ix *MinHashLSH) *banded[signature] { return ix.banded },
			probe: func(ix *MinHashLSH, q *table.Table) any {
				return [][]Ranked{ix.TopK(q, 1), ix.TopK(q, 3), ix.TopK(q, 10)}
			},
		})
	})
	t.Run("cosine", func(t *testing.T) {
		// A low dimension keeps the many rebuilds and compactions cheap; the
		// maintenance logic under test does not depend on it.
		emb := embed.NewNGramEmbedder(16, 3, 7)
		runLayeredSpec(t, layeredCase[*CosineLSH, []float32]{
			build: func(s *lake.Snapshot) *CosineLSH { return BuildCosineLSH(s, emb) },
			delta: (*CosineLSH).WithDelta,
			core:  func(ix *CosineLSH) *banded[[]float32] { return ix.banded },
			probe: func(ix *CosineLSH, q *table.Table) any {
				var out [][]CosineMatch
				for c := range q.Cols {
					out = append(out, ix.SearchColumn(q, c, 0.2, 10))
				}
				return out
			},
			roundTrip: func(ix *CosineLSH, d *table.Dict) (*CosineLSH, error) {
				return parseCosine(appendCosine(nil, ix, d.Fingerprint()), d)
			},
		})
	})
}

// layeredView canonicalizes a core for comparison: the live payloads, the
// table list sorted, and each bucket's members sorted (bucket order depends
// on insertion history, which maintenance and compaction legitimately
// change; membership must not).
type layeredView[P any] struct {
	payloads map[ColumnRef]P
	tables   []string
	buckets  map[uint64][]ColumnRef
}

func viewOf[P any](b *banded[P]) layeredView[P] {
	flat := b.flattened()
	v := layeredView[P]{
		payloads: flat.base,
		tables:   append([]string(nil), flat.tables...),
		buckets:  make(map[uint64][]ColumnRef, len(flat.buckets)),
	}
	sort.Strings(v.tables)
	for bk, refs := range flat.buckets {
		cp := append([]ColumnRef(nil), refs...)
		sort.Slice(cp, func(i, j int) bool {
			if cp[i].Table != cp[j].Table {
				return cp[i].Table < cp[j].Table
			}
			return cp[i].Col < cp[j].Col
		})
		v.buckets[bk] = cp
	}
	return v
}

func mapIdentity(m any) uintptr { return reflect.ValueOf(m).Pointer() }

func runLayeredSpec[W, P any](t *testing.T, c layeredCase[W, P]) {
	saveLoad := func(ix W, dict *table.Dict) W {
		t.Helper()
		got, err := c.roundTrip(ix, dict)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// What the program must have exercised by the end, across all seeds.
	var reAdds, overrideDrops, baseDrops, compactions int

	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := lake.New()
		nextID := 0
		for i := 0; i < 4; i++ {
			nextID++
			laketest.Add(l, randomTable(rng, fmt.Sprintf("t%d", nextID)))
		}
		prev := l.Snapshot()
		prev.EnsureInterned()
		maintained := c.build(prev)
		var dropped []string // every name ever dropped, for resurrection
		wasDropped := make(map[string]bool)
		probes := []*table.Table{randomTable(rng, "probe0"), randomTable(rng, "probe1")}

		for step := 0; step < 120; step++ {
			// One mutation per step. Every other step grows the lake, so the
			// override layer outgrows the compaction threshold midway; every
			// fifth resurrects a dropped name; the rest are random.
			switch {
			case step%5 == 4 && len(dropped) > 0:
				laketest.Add(l, randomTable(rng, dropped[rng.Intn(len(dropped))]))
			case step%2 == 0:
				nextID++
				laketest.Add(l, randomTable(rng, fmt.Sprintf("t%d", nextID)))
			default:
				applyRandomMutation(t, rng, l, &nextID)
			}
			snap := l.Snapshot()
			added, removed, ok := lake.Diff(prev, snap)
			if !ok {
				t.Fatal("diff broke within one lineage")
			}
			snap.EnsureInterned()

			before := c.core(maintained)
			for _, at := range added {
				if wasDropped[at.Name] {
					reAdds++
				}
			}
			for _, rt := range removed {
				if !wasDropped[rt.Name] {
					wasDropped[rt.Name] = true
					dropped = append(dropped, rt.Name)
				}
				if _, inOver := before.over[ColumnRef{Table: rt.Name, Col: 0}]; inOver {
					overrideDrops++
				} else {
					baseDrops++
				}
			}
			beforeView := viewOf(before)
			var beforeAnswers []any
			for _, q := range probes {
				beforeAnswers = append(beforeAnswers, c.probe(maintained, q))
			}

			next := c.delta(maintained, forms(snap, added), forms(prev, removed))
			fresh := c.build(snap)
			at := fmt.Sprintf("seed %d step %d", seed, step)

			// The receiver is untouched, and still answers as before.
			if !reflect.DeepEqual(viewOf(c.core(maintained)), beforeView) {
				t.Fatalf("%s: WithDelta mutated its receiver", at)
			}
			for i, q := range probes {
				if !reflect.DeepEqual(c.probe(maintained, q), beforeAnswers[i]) {
					t.Fatalf("%s: the receiver answers differently after WithDelta", at)
				}
			}
			// Short of a compaction, the base storage is shared, not copied.
			after := c.core(next)
			if len(after.over)+len(after.dead) == 0 && len(added)+len(removed) > 0 {
				compactions++
			} else if mapIdentity(after.base) != mapIdentity(before.base) ||
				mapIdentity(after.buckets) != mapIdentity(before.buckets) {
				t.Fatalf("%s: an uncompacted delta copied the base", at)
			}

			// The maintained index equals a fresh build: contents, coverage,
			// answers.
			if !reflect.DeepEqual(viewOf(after), viewOf(c.core(fresh))) {
				t.Fatalf("%s: maintained index diverged from a fresh build", at)
			}
			if !after.Covers(snap) {
				t.Fatalf("%s: maintained index does not cover the snapshot", at)
			}
			probe := randomTable(rng, "probe")
			if got, want := c.probe(next, probe), c.probe(fresh, probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: probe diverged:\n got %v\nwant %v", at, got, want)
			}

			maintained, prev = next, snap
			if c.roundTrip == nil {
				continue
			}
			// And it persists like one: save→load of either is the same index.
			loaded, loadedFresh := saveLoad(next, snap.Dict()), saveLoad(fresh, snap.Dict())
			if !reflect.DeepEqual(viewOf(c.core(loaded)), viewOf(c.core(loadedFresh))) {
				t.Fatalf("%s: reloaded maintained index diverged from the reloaded fresh build", at)
			}
			if got, want := c.probe(loaded, probe), c.probe(fresh, probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: reloaded index answers differently:\n got %v\nwant %v", at, got, want)
			}
		}
	}
	if reAdds == 0 || overrideDrops == 0 || baseDrops == 0 || compactions == 0 {
		t.Fatalf("program too tame: %d re-adds, %d override drops, %d base drops, %d compactions",
			reAdds, overrideDrops, baseDrops, compactions)
	}
}
