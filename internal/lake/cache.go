package lake

import (
	"container/list"
	"runtime"
	"sync"

	"gent/internal/table"
)

// internState is the dictionary plus the resident interned-form cache a
// lineage of snapshots shares. The cache is keyed by table pointer, so a
// replaced table (new pointer, same name) can never serve a stale form, and
// every snapshot that contains a given pointer shares one interned form.
//
// The cache is the lake's resident tier. With no budget it behaves like the
// v4 cache: every interned form stays resident until its table leaves the
// catalog. With a byte budget set, least-recently-used forms are evicted once
// the resident set exceeds the budget — spilled to the segment store when one
// is attached and does not already hold them, dropped otherwise — and
// re-materialized transparently on the next request, from the store (one
// file read, no re-hashing) or by re-interning. Eviction never invalidates a
// pinned snapshot: the dictionary is append-only, so a reloaded or
// re-interned form carries exactly the IDs the evicted one did, and query
// results are bit-identical either way.
type internState struct {
	mu   sync.Mutex
	dict *table.Dict

	cache map[*table.Table]*cacheEntry
	// lru orders resident forms, most recently used at the front; element
	// values are the *table.Table keys.
	lru *list.List
	// residentBytes sums the cached forms' MemBytes.
	residentBytes int64
	// budget caps residentBytes when positive; 0 means unbounded.
	budget int64
	// store, when non-nil, is the disk tier evicted forms spill to.
	store *table.SegmentStore
	// ever records the content fingerprint every table pointer was interned
	// under, including currently-evicted ones. It distinguishes a table that
	// was interned and evicted (reload it alone) from one never interned
	// (intern the whole snapshot's missing set in deterministic bulk order),
	// and is what makes bulk interning idempotent under eviction pressure —
	// EnsureInterned never re-interns an evicted form just to evict it again.
	ever map[*table.Table]uint64
	// gen counts sweeps and store replacements. A segment load that started
	// at another gen does not insert its form: the table may have been
	// edited in place, or the form may come from a store no longer attached.
	gen   uint64
	stats CacheStats
}

// cacheEntry is one resident interned form.
type cacheEntry struct {
	it   *table.Interned
	fp   uint64 // content fingerprint of the table the form was built from
	size int64
	elem *list.Element
	// from is the segment store the form was loaded from, nil for a form
	// interned (or retargeted) in memory. Evicting a form whose from is the
	// attached store writes nothing: its segment is already there.
	from *table.SegmentStore
}

// CacheStats counts resident-cache traffic. Loads are segment-store
// re-materializations, Reinterns the fallback when no store (or no valid
// segment) is available. Spills counts successful evict-time segment writes:
// only forms interned in memory, or loaded from a store SetSegmentStore has
// since replaced, are written; a form loaded from the attached store is
// dropped as is, counted under Evictions alone.
type CacheStats struct {
	Resident      int
	ResidentBytes int64
	Budget        int64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Spills        uint64
	SpillErrors   uint64
	Loads         uint64
	Reinterns     uint64
}

func newInternState(d *table.Dict) *internState {
	return &internState{
		dict:  d,
		cache: make(map[*table.Table]*cacheEntry),
		lru:   list.New(),
		ever:  make(map[*table.Table]uint64),
	}
}

// insertLocked makes a form resident and enforces the budget. The freshly
// inserted form is never the eviction victim (it is at the LRU front and the
// loop leaves at least one resident), so a caller holding the returned form
// can use it safely.
func (st *internState) insertLocked(t *table.Table, fp uint64, it *table.Interned, from *table.SegmentStore) {
	size := it.MemBytes()
	e := &cacheEntry{it: it, fp: fp, size: size, from: from}
	e.elem = st.lru.PushFront(t)
	st.cache[t] = e
	st.residentBytes += size
	st.ever[t] = fp
	st.enforceBudgetLocked()
}

// enforceBudgetLocked evicts from the LRU tail until the resident set fits
// the budget, always keeping at least one form resident. A victim loaded from
// the attached store is dropped without a write: Load verified its segment,
// and Load re-verifies everything it reads, so a segment lost since costs one
// re-intern, never a wrong result.
func (st *internState) enforceBudgetLocked() {
	if st.budget <= 0 {
		return
	}
	for st.residentBytes > st.budget && st.lru.Len() > 1 {
		back := st.lru.Back()
		t := back.Value.(*table.Table)
		e := st.cache[t]
		if st.store != nil && e.from != st.store {
			if err := st.store.Write(e.it, e.fp, st.dict); err != nil {
				// The form is still reproducible by re-interning; dropping it
				// without a segment only costs time, never correctness.
				st.stats.SpillErrors++
			} else {
				st.stats.Spills++
			}
		}
		st.removeLocked(t, e)
		st.stats.Evictions++
	}
}

// removeLocked drops a resident form without touching ever.
func (st *internState) removeLocked(t *table.Table, e *cacheEntry) {
	delete(st.cache, t)
	st.lru.Remove(e.elem)
	st.residentBytes -= e.size
}

// ensure interns every listed table never interned before, with the
// deterministic two-phase intern: tables pre-intern against private scratch
// dictionaries on a worker pool (the dominant cost — hashing every cell —
// parallelizes), then merge into the shared dictionary serially in list
// order, which assigns exactly the IDs a fully serial pass would have.
// Previously-interned-but-evicted tables are left evicted; they reload on
// demand.
func (st *internState) ensure(names []string, byName map[string]*table.Table, fps map[string]uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ensureLocked(names, byName, fps)
}

func (st *internState) ensureLocked(names []string, byName map[string]*table.Table, fps map[string]uint64) {
	missing := make([]string, 0)
	for _, n := range names {
		t := byName[n]
		if _, resident := st.cache[t]; resident {
			continue
		}
		if _, was := st.ever[t]; was {
			continue
		}
		missing = append(missing, n)
	}
	if len(missing) == 0 {
		return
	}
	pres := make([]*table.PreInterned, len(missing))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(missing) {
		workers = len(missing)
	}
	if workers <= 1 {
		for i, n := range missing {
			pres[i] = table.PreInternTable(byName[n])
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					pres[i] = table.PreInternTable(byName[missing[i]])
				}
			}()
		}
		for i := range missing {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, n := range missing {
		t := byName[n]
		st.insertLocked(t, fps[n], pres[i].Merge(st.dict), nil)
	}
}

// internedOf returns t's interned form: the resident one, a reload of an
// evicted one, or — for a never-interned table — the form produced by
// interning all of the snapshot's missing tables in deterministic order.
//
// A segment load runs without st.mu, so readers of resident forms and loads
// of other tables never wait behind a disk read. Two misses on one table may
// both load it; the first to re-lock inserts its form and the other returns
// that one. Both loads count under Loads, so every miss of an evicted form
// is one Load or one Reintern.
func (st *internState) internedOf(t *table.Table, names []string, byName map[string]*table.Table, fps map[string]uint64) *table.Interned {
	st.mu.Lock()
	if e, ok := st.cache[t]; ok {
		st.stats.Hits++
		st.lru.MoveToFront(e.elem)
		st.mu.Unlock()
		return e.it
	}
	st.stats.Misses++
	fp, was := st.ever[t]
	if !was {
		st.ensureLocked(names, byName, fps)
		if e, ok := st.cache[t]; ok {
			st.mu.Unlock()
			return e.it
		}
		// t belongs to an older snapshot and was swept; re-materialize it
		// alone. The dictionary is append-only, so the form is identical to
		// the swept one — eviction and sweeping bound memory, never change
		// results.
		var ok bool
		if fp, ok = fps[t.Name]; !ok || byName[t.Name] != t {
			fp = table.Fingerprint(t)
		}
	}
	store, gen := st.store, st.gen
	st.mu.Unlock()

	// Load verifies the segment against fp and the dictionary's prefix
	// stamp; the dictionary is safe for concurrent use and append-only. A
	// missing, stale or corrupt segment is not an error here: the form is
	// re-interned below.
	var loaded *table.Interned
	if store != nil {
		loaded, _ = store.Load(t, fp, st.dict)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if loaded != nil {
		st.stats.Loads++
	}
	if e, ok := st.cache[t]; ok {
		st.lru.MoveToFront(e.elem)
		return e.it
	}
	switch {
	case loaded == nil:
		// No store or no valid segment: a solo re-intern, under the lock so
		// it orders with every other merge into the dictionary.
		st.stats.Reinterns++
		it := table.PreInternTable(t).Merge(st.dict)
		st.insertLocked(t, fp, it, nil)
		return it
	case st.gen == gen:
		st.insertLocked(t, fp, loaded, store)
	}
	// Otherwise a sweep or a new store came in between: the form is right
	// for this caller's snapshot but is not cached.
	return loaded
}

// sweep evicts cached forms and intern records of tables absent from the
// live catalog, plus any explicitly listed ones (same-pointer in-place
// edits, which the liveness check cannot see). Pinned snapshots that still
// need a swept form re-materialize it on demand (same IDs — the dictionary
// never shrinks), so sweeping only bounds memory, never changes results.
func (st *internState) sweep(live map[string]*table.Table, evict []*table.Table) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gen++
	for t, e := range st.cache {
		if live[t.Name] != t {
			st.removeLocked(t, e)
		}
	}
	for t := range st.ever {
		if live[t.Name] != t {
			delete(st.ever, t)
		}
	}
	for _, t := range evict {
		if e, ok := st.cache[t]; ok {
			st.removeLocked(t, e)
		}
		delete(st.ever, t)
	}
}

// retarget republishes renamed tables' cached interned forms under their
// shallow copies ([old, new] pairs), so a rename costs no re-interning. It
// runs only after the whole Apply batch has validated.
func (st *internState) retarget(pairs [][2]*table.Table) {
	if len(pairs) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, p := range pairs {
		if e, ok := st.cache[p[0]]; ok {
			// No store: the segment on disk is under the old name.
			st.insertLocked(p[1], e.fp, e.it.Retargeted(p[1]), nil)
		} else if fp, was := st.ever[p[0]]; was {
			// The old form is on disk (or reproducible); record the new
			// pointer so the rename stays lazy instead of forcing a bulk
			// re-intern. Content is unchanged, so the fingerprint carries.
			st.ever[p[1]] = fp
		}
	}
}

// used reports whether anything has been interned (or adopted) yet.
func (st *internState) used() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.ever) > 0 || len(st.cache) > 0 || st.dict.Len() > 0
}

// snapshotStats returns a copy of the counters plus the current residency.
func (st *internState) snapshotStats() CacheStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.Resident = len(st.cache)
	s.ResidentBytes = st.residentBytes
	s.Budget = st.budget
	return s
}

// configure updates the budget and/or store (nil store and negative budget
// mean "leave unchanged") and enforces the new budget immediately.
func (st *internState) configure(budget int64, store *table.SegmentStore) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if budget >= 0 {
		st.budget = budget
	}
	if store != nil && store != st.store {
		st.store = store
		st.gen++
	}
	st.enforceBudgetLocked()
}

// SetResidentBudget caps the bytes of interned forms kept resident; 0
// removes the cap. The cap applies to the cache the current snapshot lineage
// shares, takes effect immediately (evicting down to the budget), and is
// inherited by every later snapshot of this lake.
func (l *Lake) SetResidentBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	l.snap.Load().ist.configure(bytes, nil)
}

// SetSegmentStore attaches the disk tier evicted forms spill to and reload
// from. Without a store, evicted forms are dropped and re-interned on
// demand.
func (l *Lake) SetSegmentStore(st *table.SegmentStore) {
	if st == nil {
		return
	}
	l.snap.Load().ist.configure(-1, st)
}

// CacheStats reports the resident cache's counters and current occupancy.
func (l *Lake) CacheStats() CacheStats {
	return l.snap.Load().ist.snapshotStats()
}
