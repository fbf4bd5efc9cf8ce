package index

import (
	"context"
	"fmt"

	"gent/internal/lake"
	"gent/internal/par"
	"gent/internal/table"
)

// IndexSet bundles the discovery substrates over one lake: the exact
// inverted index (the JOSIE role), the MinHash-LSH first stage (the Starmie
// role), and the value dictionary both are keyed under. Only the inverted
// index is always needed: the LSH only when first-stage retrieval is on,
// and a session builds it on demand. SaveDir persists the inverted index
// with the epoch and the dictionary's prefix stamp; the LSH is never
// persisted, so a loaded set has none. All members are read-only after
// construction (the dictionary only ever appends) and safe for concurrent
// search.
type IndexSet struct {
	Inverted *Inverted
	LSH      *MinHashLSH
	// Dict is the value dictionary the substrates are keyed under: the
	// lake's own. A set LoadIndexSetDir returned has none until Bind.
	Dict *table.Dict
	// Epoch is the lake epoch the substrates were built or last maintained
	// at; the zero Epoch means unknown (a hand-built or pre-epoch set). It is
	// persisted with the inverted index, so a later session over the same
	// lake lineage can tell at a glance whether the set is current (and so
	// loadable as-is) or must be rebuilt.
	Epoch lake.Epoch
}

// Bind returns the set bound to snap's value dictionary, the one its IDs
// resolve through from then on; the receiver is not modified. Substrates
// built in this process must already be keyed under that very dictionary.
// An inverted index LoadIndexSetDir read binds when the dictionary's first
// entries verify the Dict.PrefixStamp it was saved under; snap is interned
// first if its dictionary is shorter than that stamp, and since a lake
// interns its tables in catalog order (name order for lake.LoadDir), the
// same tables give the same dictionary in every process. Anything else fails with
// lake.ErrDictMismatch: the IDs would resolve to the wrong values.
func (s *IndexSet) Bind(snap *lake.Snapshot) (*IndexSet, error) {
	d := snap.Dict()
	out := *s
	out.Dict = d
	switch inv := s.Inverted; {
	case inv == nil || inv.dict == d:
	case inv.dict != nil:
		return nil, fmt.Errorf("%w: the inverted index is keyed under another dictionary", lake.ErrDictMismatch)
	default:
		if d.Len() < inv.savedLen {
			snap.EnsureInterned()
		}
		if !d.VerifyPrefixStamp(inv.savedLen, inv.savedFP) {
			return nil, fmt.Errorf("%w: the inverted index was saved under another dictionary", lake.ErrDictMismatch)
		}
		bound := *inv
		bound.dict = d
		out.Inverted = &bound
	}
	if s.LSH != nil && s.LSH.dict != d {
		return nil, fmt.Errorf("%w: the MinHash-LSH is keyed under another dictionary", lake.ErrDictMismatch)
	}
	return &out, nil
}

// BuildIndexSetSharded builds both substrates over the snapshot, each with a
// parallel per-table scan, and the two builds themselves running
// concurrently; shards is BuildInvertedSharded's. The set is stamped with the
// snapshot's dictionary and epoch.
func BuildIndexSetSharded(l *lake.Snapshot, shards int) *IndexSet {
	s := &IndexSet{}
	builds := []func(){
		func() { s.Inverted = BuildInvertedSharded(l, shards) },
		func() { s.LSH = BuildMinHashLSH(l) },
	}
	par.For(context.Background(), len(builds), len(builds), func(_, i int) { builds[i]() })
	s.Dict = l.Dict()
	s.Epoch = l.Epoch()
	return s
}
