package index

import (
	"sync"

	"gent/internal/embed"
	"gent/internal/lake"
	"gent/internal/table"
)

// IndexSet bundles the discovery substrates over one lake: the exact
// inverted index (the JOSIE role), the MinHash-LSH first stage (the Starmie
// role), the optional cosine-LSH semantic substrate, and the value
// dictionary the members are keyed under. Only the inverted index is always
// needed: the LSH only when first-stage retrieval is on, the semantic index
// only when a non-syntactic discovery strategy is, and a session builds
// either on demand. SaveDir persists the inverted and semantic indexes with
// the dictionary and epoch; the LSH is never persisted, so a loaded set has
// none. All members are read-only after construction (the dictionary only
// ever appends) and safe for concurrent search.
type IndexSet struct {
	Inverted *Inverted
	LSH      *MinHashLSH
	// Semantic is the embedding substrate for semantic/hybrid discovery. Its
	// vectors are not ID-keyed, but it is persisted under the set's
	// dictionary fingerprint like the inverted index so a mixed directory
	// refuses to load.
	Semantic *CosineLSH
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

// BuildIndexSetFull is BuildIndexSetSharded plus the semantic substrate,
// embedded under emb (nil means the built-in embedder), with all three
// builds running concurrently.
func BuildIndexSetFull(l *lake.Snapshot, shards int, emb embed.Embedder) *IndexSet {
	var sem *CosineLSH
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sem = BuildCosineLSH(l, emb)
	}()
	s := BuildIndexSetSharded(l, shards)
	wg.Wait()
	s.Semantic = sem
	return s
}

// Gap classifies how this set relates to a snapshot: the snapshot tables the
// substrates already cover and the tables missing entirely. ok reports an
// add-only gap — every covered table is indexed under exactly its current
// schema in the inverted index, and in the semantic index when present, so
// CatchUp can close the gap with a pure insertion delta. A partially-covered
// table (schema change under a kept name) makes the gap non-add-only: ok is
// false and the caller must rebuild. The LSH is not consulted.
func (s *IndexSet) Gap(c *lake.Snapshot) (covered, missing []string, ok bool) {
	if s.Inverted == nil {
		return nil, c.Names(), false
	}
	var semHas map[string]bool
	if s.Semantic != nil {
		semHas = s.Semantic.tableSet()
	}
	for _, t := range c.Tables() {
		switch {
		case s.Inverted.coversTable(t):
			if semHas != nil && !semHas[t.Name] {
				return nil, nil, false // substrates disagree: not add-only
			}
			covered = append(covered, t.Name)
		case !s.Inverted.hasTable(t.Name):
			if semHas != nil && semHas[t.Name] {
				return nil, nil, false
			}
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
// ok=false (gap not add-only, a semantic substrate without its embedder, or
// a covered table whose indexed postings no longer match its contents)
// leaves the caller on the full rebuild path. The snapshot's
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
	if !ok || s.Semantic != nil && !s.Semantic.Embeddable() {
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
	inv := s.Inverted.WithDelta(forms, nil)
	var sem *CosineLSH
	if s.Semantic != nil {
		s.Semantic.RebindDict(snap.Dict())
		if sem = s.Semantic.WithDelta(forms, nil); sem == nil {
			return 0, false
		}
	}
	s.Inverted = inv
	s.LSH = nil
	s.Semantic = sem
	s.Dict = snap.Dict()
	s.Epoch = snap.Epoch()
	return len(missing), true
}
