package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// TestLayeredLSHMatchesRebuild is the maintenance spec of the layered
// core: a seeded program of add / drop / replace / rename /
// re-add-after-drop mutations, long enough to drop override-resident tables
// and to cross the compaction threshold, where after every step the
// maintained index must answer like a fresh build over the same snapshot and
// have left its receiver exactly as it was.
func TestLayeredLSHMatchesRebuild(t *testing.T) {
	t.Run("minhash", runLayeredSpec)
}

// layeredView canonicalizes a core for comparison: the live payloads and
// each bucket's members sorted (bucket order depends
// on insertion history, which maintenance and compaction legitimately
// change; membership must not).
type layeredView struct {
	sigs    map[ColumnRef]signature
	buckets map[uint64][]ColumnRef
}

func viewOf(b *banded) layeredView {
	flat := b
	if len(b.over) > 0 || len(b.dead) > 0 {
		flat = b.compacted()
	}
	v := layeredView{
		sigs:    flat.base,
		buckets: make(map[uint64][]ColumnRef, len(flat.buckets)),
	}
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

// probeAll answers q at three cut-offs.
func probeAll(ix *MinHashLSH, q *table.Table) [][]Ranked {
	return [][]Ranked{ix.TopK(q, 1), ix.TopK(q, 3), ix.TopK(q, 10)}
}

func runLayeredSpec(t *testing.T) {
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
		maintained := BuildMinHashLSH(prev)
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

			before := maintained.banded
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
			var beforeAnswers [][][]Ranked
			for _, q := range probes {
				beforeAnswers = append(beforeAnswers, probeAll(maintained, q))
			}

			next := maintained.WithDelta(forms(snap, added), forms(prev, removed))
			fresh := BuildMinHashLSH(snap)
			at := fmt.Sprintf("seed %d step %d", seed, step)

			// The receiver is untouched, and still answers as before.
			if !reflect.DeepEqual(viewOf(maintained.banded), beforeView) {
				t.Fatalf("%s: WithDelta mutated its receiver", at)
			}
			for i, q := range probes {
				if !reflect.DeepEqual(probeAll(maintained, q), beforeAnswers[i]) {
					t.Fatalf("%s: the receiver answers differently after WithDelta", at)
				}
			}
			// Short of a compaction, the base storage is shared, not copied.
			after := next.banded
			if len(after.over)+len(after.dead) == 0 && len(added)+len(removed) > 0 {
				compactions++
			} else if mapIdentity(after.base) != mapIdentity(before.base) ||
				mapIdentity(after.buckets) != mapIdentity(before.buckets) {
				t.Fatalf("%s: an uncompacted delta copied the base", at)
			}

			// The maintained index equals a fresh build: contents and
			// answers.
			if !reflect.DeepEqual(viewOf(after), viewOf(fresh.banded)) {
				t.Fatalf("%s: maintained index diverged from a fresh build", at)
			}
			probe := randomTable(rng, "probe")
			if got, want := probeAll(next, probe), probeAll(fresh, probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: probe diverged:\n got %v\nwant %v", at, got, want)
			}

			maintained, prev = next, snap
		}
	}
	if reAdds == 0 || overrideDrops == 0 || baseDrops == 0 || compactions == 0 {
		t.Fatalf("program too tame: %d re-adds, %d override drops, %d base drops, %d compactions",
			reAdds, overrideDrops, baseDrops, compactions)
	}
}
