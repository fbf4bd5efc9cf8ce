package benchmark

import (
	"context"
	"os"
	"strconv"
	"testing"

	"gent/internal/core"
	"gent/internal/lake"
)

// storeTables is the corpus size the storage benchmark and footprint test
// run at. The acceptance corpus is LargeCorpusTables; the default here keeps
// the suite fast, and GENT_TABLES scales it up for acceptance runs:
//
//	GENT_TABLES=100000 go test -run StoreBounded -bench ReclaimStore ./internal/benchmark
func storeTables(tb testing.TB) int {
	tb.Helper()
	if v := os.Getenv("GENT_TABLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			tb.Fatalf("bad GENT_TABLES %q", v)
		}
		return n
	}
	return 600
}

// storeCorpus builds the `large`-preset corpus minus the open-data tables
// whose generator drew the same measure column twice: a persisted lake
// refuses malformed shapes, as the CSV loader and the wire codec do.
func storeCorpus(tb testing.TB) *TPTR {
	tb.Helper()
	corpus, err := BuildLargePreset(storeTables(tb), 11)
	if err != nil {
		tb.Fatal(err)
	}
	var drops []lake.Mutation
	for _, t := range corpus.Lake.Tables() {
		if t.Validate() != nil {
			drops = append(drops, lake.Drop(t.Name))
		}
	}
	if _, err := corpus.Lake.Apply(context.Background(), drops...); err != nil {
		tb.Fatal(err)
	}
	return corpus
}

// BenchmarkReclaimStore measures one reclaim over the `large`-preset corpus
// served from the storage tier, cold and warm:
//
//   - cold: every iteration re-opens the persisted lake (empty resident
//     cache, substrates built from segment loads) and runs one query — the
//     first-query-after-restart cost;
//   - warm: one session reclaims repeatedly under the same byte budget —
//     the steady-state cost, where substrates are shared and only evicted
//     table forms page in.
//
// Both run with the resident budget at a quarter of the corpus's interned
// footprint, so the cache is genuinely paging, not just resident.
func BenchmarkReclaimStore(b *testing.B) {
	corpus := storeCorpus(b)
	src := corpus.Sources[0]
	dir := b.TempDir()
	if err := corpus.Lake.Persist(dir); err != nil {
		b.Fatal(err)
	}
	budget := corpus.Lake.CacheStats().ResidentBytes / 4

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := lake.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			l.SetResidentBudget(budget)
			if _, err := core.NewReclaimer(l, core.DefaultConfig()).Reclaim(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		l, err := lake.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		l.SetResidentBudget(budget)
		session := core.NewReclaimer(l, core.DefaultConfig())
		if _, err := session.Reclaim(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := session.Reclaim(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestStoreBoundedFootprint is the beyond-RAM acceptance check at test
// scale: a reclaim over the `large`-preset corpus, opened from disk under a
// budget an eighth of the corpus's interned footprint, must succeed with the
// resident cache held within budget the whole way (evictions prove the
// pressure was real, segment loads prove the disk tier served it) and
// produce the same report a fully-resident lake does.
func TestStoreBoundedFootprint(t *testing.T) {
	corpus := storeCorpus(t)
	src := corpus.Sources[0]
	dir := t.TempDir()
	if err := corpus.Lake.Persist(dir); err != nil {
		t.Fatal(err)
	}
	footprint := corpus.Lake.CacheStats().ResidentBytes

	want, err := core.NewReclaimer(corpus.Lake, core.DefaultConfig()).Reclaim(src)
	if err != nil {
		t.Fatal(err)
	}

	l, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := footprint / 8
	l.SetResidentBudget(budget)
	got, err := core.NewReclaimer(l, core.DefaultConfig()).Reclaim(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reclaimed.String() != want.Reclaimed.String() {
		t.Fatal("budgeted reclaim diverged from the fully-resident one")
	}
	s := l.CacheStats()
	if s.ResidentBytes > budget {
		t.Fatalf("resident bytes %d over budget %d", s.ResidentBytes, budget)
	}
	if s.Evictions == 0 || s.Loads == 0 {
		t.Fatalf("budget or store never engaged: %+v", s)
	}
	t.Logf("footprint %.1f MiB, budget %.1f MiB, stats %+v",
		float64(footprint)/(1<<20), float64(budget)/(1<<20), s)
}
