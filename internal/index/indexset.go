package index

import (
	"sync"

	"gent/internal/lake"
	"gent/internal/table"
)

// IndexSet bundles the discovery substrates over one lake: the exact
// inverted index (the JOSIE role), the MinHash-LSH first stage (the Starmie
// role), and the value dictionary both are keyed under. Only the inverted
// index is always needed: the LSH only when first-stage retrieval is on,
// and a session builds it on demand. SaveDir persists the inverted index
// with the dictionary and epoch; the LSH is never persisted, so a loaded set
// has none. All members are read-only after construction (the dictionary
// only ever appends) and safe for concurrent search.
type IndexSet struct {
	Inverted *Inverted
	LSH      *MinHashLSH
	// Dict is the value dictionary the substrates were built with. A session
	// loading a persisted set must adopt this dictionary into its lake
	// (lake.AdoptDict) before interning anything, so the persisted IDs keep
	// meaning the same values.
	Dict *table.Dict
	// Epoch is the lake epoch the substrates were built or last maintained
	// at; the zero Epoch means unknown (a hand-built or pre-epoch set). It is
	// persisted with the dictionary, so a later session over the same lake
	// lineage can tell at a glance whether the set is current, and
	// catch up with a delta when it is merely behind.
	Epoch lake.Epoch
}

// BuildIndexSet is BuildIndexSetSharded at DefaultShards.
func BuildIndexSet(l *lake.Snapshot) *IndexSet {
	return BuildIndexSetSharded(l, DefaultShards)
}

// BuildIndexSetSharded builds both substrates over the snapshot, each with a
// parallel per-table scan, and the two builds themselves running
// concurrently; shards is BuildInvertedSharded's. The set is stamped with the
// snapshot's dictionary and epoch.
func BuildIndexSetSharded(l *lake.Snapshot, shards int) *IndexSet {
	s := &IndexSet{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Inverted = BuildInvertedSharded(l, shards)
	}()
	go func() {
		defer wg.Done()
		s.LSH = BuildMinHashLSH(l)
	}()
	wg.Wait()
	s.Dict = l.Dict()
	s.Epoch = l.Epoch()
	return s
}

// Gap classifies how this set relates to a snapshot: the snapshot tables the
// substrates already cover and the tables missing entirely. ok reports an
// add-only gap — every covered table is indexed under exactly its current
// schema in the inverted index, so CatchUp can close the gap with a pure
// insertion delta. A partially-covered
// table (schema change under a kept name) makes the gap non-add-only: ok is
// false and the caller must rebuild. The LSH is not consulted.
func (s *IndexSet) Gap(c *lake.Snapshot) (covered, missing []string, ok bool) {
	if s.Inverted == nil {
		return nil, c.Names(), false
	}
	for _, t := range c.Tables() {
		switch {
		case s.Inverted.coversTable(t):
			covered = append(covered, t.Name)
		case !s.Inverted.hasTable(t.Name):
			missing = append(missing, t.Name)
		default:
			return nil, nil, false // schema changed under a kept name
		}
	}
	return covered, missing, true
}

// CatchUp incrementally extends the set to cover snap, inserting the tables
// Gap reports missing through the same WithDelta maintenance the
// epoch-versioned session uses, then restamps Dict and Epoch from snap. An
// LSH is dropped rather than maintained: a session rebuilds it on demand. It
// returns the number of tables added and whether the catch-up applied;
// ok=false (gap not add-only, or a covered table whose indexed postings no
// longer match its contents) leaves the caller on the full rebuild path. The snapshot's
// dictionary must already incorporate the set's (lake.AdoptDict /
// AdoptDictCovering) so the persisted IDs keep meaning the same values.
//
// Covered tables are verified exactly, not just by schema: one pass over
// the live postings accumulates each covered column's indexed distinct
// count and an order-independent ID-set hash, which must match the
// snapshot's interned form — so a value-level edit to an already-indexed
// table (even one that reuses dictionary values and preserves counts)
// fails the catch-up instead of being silently served and re-persisted as
// current.
func (s *IndexSet) CatchUp(snap *lake.Snapshot) (added int, ok bool) {
	covered, missing, ok := s.Gap(snap)
	if !ok {
		return 0, false
	}
	snap.EnsureInterned()
	if !s.Inverted.verifyTables(snap, covered) {
		return 0, false
	}
	if len(missing) == 0 {
		s.Dict = snap.Dict()
		s.Epoch = snap.Epoch()
		return 0, true
	}
	forms := make([]*table.Interned, 0, len(missing))
	for _, name := range missing {
		forms = append(forms, snap.Interned(name))
	}
	// Rebind to the snapshot's (authoritative, possibly grown) dictionary
	// before inserting forms interned under it.
	s.Inverted.RebindDict(snap.Dict())
	s.Inverted = s.Inverted.WithDelta(forms, nil)
	s.LSH = nil
	s.Dict = snap.Dict()
	s.Epoch = snap.Epoch()
	return len(missing), true
}
