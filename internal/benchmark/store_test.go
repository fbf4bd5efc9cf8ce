package benchmark

import (
	"context"
	"os"
	"strconv"
	"testing"

	"gent/internal/core"
	"gent/internal/lake"
)

// storeTables is the corpus size the footprint test runs at. The acceptance
// corpus is LargeCorpusTables; the default here keeps the suite fast, and
// GENT_TABLES scales it up for acceptance runs:
//
//	GENT_TABLES=100000 go test -run StoreBounded ./internal/benchmark
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

// storeCorpus builds the `large`-preset corpus.
func storeCorpus(tb testing.TB) *TPTR {
	tb.Helper()
	corpus, err := BuildLargePreset(storeTables(tb), 11)
	if err != nil {
		tb.Fatal(err)
	}
	return corpus
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

	want, err := core.NewReclaimer(corpus.Lake, core.DefaultConfig()).ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}

	l, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := footprint / 8
	l.SetResidentBudget(budget)
	got, err := core.NewReclaimer(l, core.DefaultConfig()).ReclaimContext(context.Background(), src)
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
