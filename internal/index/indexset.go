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
	// lineage can tell at a glance whether the set is current (and so
	// loadable as-is) or must be rebuilt.
	Epoch lake.Epoch
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
