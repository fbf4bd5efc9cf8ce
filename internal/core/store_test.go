package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gent/internal/matrix"
	"gent/internal/table"
)

// TestConcurrentEvictionUnderPinning is the beyond-RAM equivalence pin: a
// query pins its epoch while the resident cache, under a budget a fraction of
// the corpus, evicts and spills the very forms the query is using — churned
// from another goroutine so evictions land mid-query. Results must be
// bit-identical to a fully-resident lake's, under both matrix encodings.
// (The dictionary is append-only, so a reloaded or re-interned form carries
// exactly the IDs the evicted one did; this test is the end-to-end proof.)
func TestConcurrentEvictionUnderPinning(t *testing.T) {
	for _, enc := range []matrix.Encoding{matrix.ThreeValued, matrix.TwoValued} {
		t.Run(fmt.Sprintf("enc=%v", enc), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Encoding = enc

			// Two identical corpora (same generation seed): one fully
			// resident, one budgeted with a spill store.
			ref := buildTPTR(t)
			b := buildTPTR(t)
			st, err := table.NewSegmentStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b.Lake.SetSegmentStore(st)
			b.Lake.EnsureInterned()
			full := b.Lake.CacheStats().ResidentBytes
			b.Lake.SetResidentBudget(full / 4)

			srcs := b.Sources
			if len(srcs) > 4 {
				srcs = srcs[:4]
			}
			refSession := NewReclaimer(ref.Lake, cfg)
			want := make([]*Result, len(srcs))
			for i, src := range srcs {
				if want[i], err = refSession.ReclaimContext(context.Background(), src); err != nil {
					t.Fatal(err)
				}
			}

			session := NewReclaimer(b.Lake, cfg)
			names := b.Lake.Snapshot().Names()
			done := make(chan struct{})
			var churn sync.WaitGroup
			churn.Add(1)
			go func() {
				// Touch every table round-robin: each access to an evicted
				// form reloads it, pushing the LRU tail out — constant
				// eviction pressure for as long as the queries run.
				defer churn.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
						b.Lake.Snapshot().Interned(names[i%len(names)])
					}
				}
			}()

			var wg sync.WaitGroup
			for i, src := range srcs {
				wg.Add(1)
				go func(i int, src *table.Table) {
					defer wg.Done()
					got, err := session.ReclaimContext(context.Background(), src)
					if err != nil {
						t.Errorf("%s: %v", src.Name, err)
						return
					}
					assertSameResult(t, fmt.Sprintf("enc %v %s", enc, src.Name), want[i], got)
				}(i, src)
			}
			wg.Wait()
			close(done)
			churn.Wait()

			if s := b.Lake.CacheStats(); s.Evictions == 0 || s.Loads == 0 {
				t.Fatalf("no eviction pressure was exercised: %+v", s)
			}
		})
	}
}
