package server

import (
	"fmt"
	"testing"

	"gent/internal/core"
	"gent/internal/lake"
)

func ep(seq uint64) lake.Epoch { return lake.Epoch{Seq: seq, Chain: seq * 31} }

func TestResultCacheHitMiss(t *testing.T) {
	c := newResultCache(1 << 20)
	e1 := ep(1)
	if got := c.get(e1, 7); got != nil {
		t.Fatalf("empty cache returned %q", got)
	}
	c.put(e1, 7, []byte("body-7"))
	if got := c.get(e1, 7); string(got) != "body-7" {
		t.Fatalf("hit returned %q", got)
	}
	if got := c.get(e1, 8); got != nil {
		t.Fatalf("unknown key returned %q", got)
	}
	s := c.snapshotStats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 entry", s)
	}
}

func TestResultCacheInvalidatesOnEpochBump(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put(ep(1), 7, []byte("old"))
	c.put(ep(1), 8, []byte("old-too"))

	// The first access at a newer epoch purges everything from the old one.
	if got := c.get(ep(2), 7); got != nil {
		t.Fatalf("entry survived the epoch bump: %q", got)
	}
	s := c.snapshotStats()
	if s.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", s.Invalidations)
	}
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("cache not emptied by the bump: %+v", s)
	}
	// The same key at the new epoch is an independent entry.
	c.put(ep(2), 7, []byte("new"))
	if got := c.get(ep(2), 7); string(got) != "new" {
		t.Fatalf("post-bump entry = %q", got)
	}
}

func TestResultCacheRefusesStaleEpoch(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put(ep(5), 1, []byte("current"))

	// A query that pinned epoch 4 and completed after the cache rolled to 5
	// must not plant its result — and certainly not under epoch 5's entries.
	c.put(ep(4), 2, []byte("stale"))
	if got := c.get(ep(5), 2); got != nil {
		t.Fatalf("stale result served at the new epoch: %q", got)
	}
	if got := c.get(ep(5), 1); string(got) != "current" {
		t.Fatalf("current entry lost: %q", got)
	}
	if s := c.snapshotStats(); s.StaleRejects != 1 {
		t.Fatalf("stale rejects = %d, want 1", s.StaleRejects)
	}
	// A put at a newer epoch rolls the cache forward.
	c.put(ep(6), 3, []byte("later"))
	if got := c.get(ep(6), 3); string(got) != "later" {
		t.Fatalf("roll-forward put not served: %q", got)
	}
}

func TestResultCacheByteBudgetEviction(t *testing.T) {
	c := newResultCache(100)
	e := ep(1)
	for i := uint64(0); i < 4; i++ {
		c.put(e, i, make([]byte, 40)) // 4×40 = 160 > 100
	}
	s := c.snapshotStats()
	if s.Entries != 2 || s.Bytes != 80 {
		t.Fatalf("after eviction: %+v, want 2 entries / 80 bytes", s)
	}
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	// LRU order: 0 and 1 were evicted, 2 and 3 remain.
	if c.get(e, 0) != nil || c.get(e, 1) != nil {
		t.Fatal("oldest entries not evicted")
	}
	if c.get(e, 2) == nil || c.get(e, 3) == nil {
		t.Fatal("newest entries evicted")
	}
	// A get refreshes recency: touch 2, insert pressure, 3 goes first.
	c.get(e, 2)
	c.put(e, 9, make([]byte, 40))
	if c.get(e, 3) != nil {
		t.Fatal("recently-used entry evicted before the stale one")
	}
	if c.get(e, 2) == nil {
		t.Fatal("touched entry evicted")
	}
}

func TestResultCacheDisabledAndOversized(t *testing.T) {
	off := newResultCache(-1)
	off.put(ep(1), 1, []byte("x"))
	if off.get(ep(1), 1) != nil {
		t.Fatal("disabled cache served an entry")
	}

	c := newResultCache(10)
	c.put(ep(1), 1, make([]byte, 11)) // bigger than the whole budget
	if s := c.snapshotStats(); s.Entries != 0 {
		t.Fatalf("oversized body cached: %+v", s)
	}
	// A body exactly at budget is admissible and stays resident alone.
	c.put(ep(1), 2, make([]byte, 10))
	if c.get(ep(1), 2) == nil {
		t.Fatal("exactly-budget body not cached")
	}
}

// TestCacheKeySeparatesOptions: the cache key is a function of the resolved
// configuration, so two requests share a key exactly when queryConfig says
// they ask the same question.
func TestCacheKeySeparatesOptions(t *testing.T) {
	serverWith := func(cfg core.Config) *Server {
		return New(core.NewReclaimer(lake.New(), cfg), Config{})
	}
	key := func(s *Server, o *ReclaimOptions) uint64 {
		return cacheKey(42, s.queryConfig(o), o != nil && o.OmitTable)
	}
	def := serverWith(core.DefaultConfig())
	base := key(def, nil)
	variants := []*ReclaimOptions{
		{Tau: 0.5},
		{MaxCandidates: 3},
		{FirstStageTopK: 8},
		{RequireCandidates: true},
		{OmitTable: true},
	}
	seen := map[uint64]string{base: "nil options"}
	for _, o := range variants {
		k := key(def, o)
		if prev, dup := seen[k]; dup {
			t.Fatalf("options %+v collide with %s", o, prev)
		}
		seen[k] = fmt.Sprintf("%+v", o)
	}
	if cacheKey(43, def.queryConfig(nil), false) == base {
		t.Fatal("different fingerprints collide")
	}
	// A column whose containment is exactly 1/5 passes τ = 0.2 and fails
	// τ = 0.2000000001: the two must not share an answer.
	if key(def, &ReclaimOptions{Tau: 0.2}) == key(def, &ReclaimOptions{Tau: 0.2000000001}) {
		t.Fatal("τ = 0.2 and τ = 0.2000000001 share a cache key")
	}
	// An explicit τ equal to the session default asks what an omitted one
	// does.
	if key(def, &ReclaimOptions{Tau: core.DefaultConfig().Discovery.Tau}) != base {
		t.Fatal("explicit default τ split the cache key")
	}
	// first_stage_top_k = -1 turns off a first stage only a session default
	// can turn on: on a default session it asks the same question as 0.
	if key(def, &ReclaimOptions{FirstStageTopK: -1}) != base {
		t.Fatal("first_stage_top_k -1 split the key on a session without a first stage")
	}
	lshCfg := core.DefaultConfig()
	lshCfg.Discovery.FirstStageTopK = 8
	lsh := serverWith(lshCfg)
	if key(lsh, &ReclaimOptions{FirstStageTopK: -1}) == key(lsh, nil) {
		t.Fatal("first_stage_top_k -1 did not split the key on a first-stage session")
	}
	// TimeoutMS changes how long a run may take, not what it computes — it
	// must NOT split the cache.
	if key(def, &ReclaimOptions{TimeoutMS: 500}) != key(def, &ReclaimOptions{}) {
		t.Fatal("timeout_ms split the cache key")
	}
	// And the zero options struct answers the same question as nil options.
	if key(def, &ReclaimOptions{}) != base {
		t.Fatal("zero options differ from nil options")
	}
}
