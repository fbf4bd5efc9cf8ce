package server

import (
	"container/list"
	"math"
	"sync"

	"gent/internal/core"
	"gent/internal/lake"
)

// resultCache is the epoch-keyed result cache: completed single-reclaim
// responses keyed by (lake epoch, source content fingerprint ⊕ configuration
// fingerprint), held as their serialized response bytes under a byte-budgeted
// LRU — the same discipline as the lake's resident interned-form cache
// (internal/lake/cache.go), applied one layer up.
//
// The epoch does the invalidation for free: the cache holds entries for
// exactly one epoch at a time, and the first access at a newer epoch purges
// the lot in O(1) amortized (the map is dropped, not walked per entry).
// Results pinned to a *stale* epoch — a query that raced Apply and completed
// on the snapshot it started on — are refused at insert, so the cache can
// never serve a catalog version the lake has left behind, and lookups only
// ever hit entries whose epoch equals the requesting epoch.
type resultCache struct {
	mu     sync.Mutex
	epoch  lake.Epoch
	budget int64
	bytes  int64
	lru    *list.List // of uint64 keys, most recently used at the front
	byKey  map[uint64]*rcEntry
	stats  ResultCacheStats
}

// rcEntry is one cached response.
type rcEntry struct {
	body []byte
	elem *list.Element
}

// ResultCacheStats counts result-cache traffic; served via /v1/stats and as
// gentd_result_cache_* counters on /metrics.
type ResultCacheStats struct {
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	Budget        int64  `json:"budget"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	StaleRejects  uint64 `json:"stale_rejects"`
}

// newResultCache creates a cache with the given byte budget; budget <= 0
// disables caching entirely (every get misses, every put is dropped).
func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget: budget,
		lru:    list.New(),
		byKey:  make(map[uint64]*rcEntry),
	}
}

// rollLocked moves the cache to a newer epoch, dropping every entry. One
// counter tick per roll: the entries died of invalidation, not pressure.
func (c *resultCache) rollLocked(epoch lake.Epoch) {
	if len(c.byKey) > 0 {
		c.stats.Invalidations += uint64(len(c.byKey))
	}
	c.lru.Init()
	c.byKey = make(map[uint64]*rcEntry)
	c.bytes = 0
	c.epoch = epoch
}

// get returns the cached response bytes for key at the given epoch, or nil.
// An epoch newer than the cache's purges it first (the bump is the
// invalidation); an older one — a lookup pinned behind a concurrent Apply —
// can only miss.
func (c *resultCache) get(epoch lake.Epoch, key uint64) []byte {
	if c.budget <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		if epoch.Seq > c.epoch.Seq {
			c.rollLocked(epoch)
		}
		c.stats.Misses++
		return nil
	}
	e, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.lru.MoveToFront(e.elem)
	return e.body
}

// put caches body under (epoch, key). Entries from an epoch older than the
// cache's are refused — the query raced Apply and its result describes a
// catalog the lake has left — and an epoch newer than the cache's rolls it
// forward. Oversized bodies (> budget) are not cached.
func (c *resultCache) put(epoch lake.Epoch, key uint64, body []byte) {
	if c.budget <= 0 || int64(len(body)) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		if epoch.Seq <= c.epoch.Seq {
			c.stats.StaleRejects++
			return
		}
		c.rollLocked(epoch)
	}
	if e, ok := c.byKey[key]; ok {
		// Same epoch + same key ⇒ same result; keep the resident copy warm.
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &rcEntry{body: body}
	e.elem = c.lru.PushFront(key)
	c.byKey[key] = e
	c.bytes += int64(len(body))
	for c.bytes > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		k := back.Value.(uint64)
		victim := c.byKey[k]
		delete(c.byKey, k)
		c.lru.Remove(back)
		c.bytes -= int64(len(victim.body))
		c.stats.Evictions++
	}
}

// snapshotStats returns a copy of the counters plus current occupancy.
func (c *resultCache) snapshotStats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.byKey)
	s.Bytes = c.bytes
	s.Budget = c.budget
	return s
}

// cacheKey folds the source content fingerprint with the resolved
// configuration (queryConfig's output) and omit_table — everything that
// changes what a response says. Two requests collide only if they ask the
// same question of the same bytes — and then sharing the answer is the
// point. Workers, index width and the observer change how a run goes, not
// what it computes, and are not mixed; neither is timeout_ms.
func cacheKey(srcFP uint64, cfg core.Config, omit bool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	d := cfg.Discovery
	mix(srcFP)
	mix(math.Float64bits(d.Tau))
	mix(uint64(int64(d.MaxCandidates)))
	mix(uint64(int64(d.FirstStageTopK)))
	mix(uint64(int64(cfg.Encoding)))
	var flags uint64
	for i, f := range []bool{d.Diversify, d.RemoveSubsumed, cfg.SkipTraversal, cfg.RequireCandidates, omit} {
		if f {
			flags |= 1 << i
		}
	}
	mix(flags)
	return h
}
