package table

import "sync"

// Interner is the value-interning capability the ID-based hot paths run on.
// *Dict is the lake-wide implementation; *Overlay layers query-local
// interning over a Dict so serving a query never grows the shared
// dictionary. Implementations are safe for concurrent use and honor the same
// equivalence classes as Value.Key.
type Interner interface {
	// InternValue returns v's ID, assigning one on first sight; nulls
	// report NullID.
	InternValue(v Value) uint32
}

// overlayIDBit marks overlay-local IDs. The shared dictionary assigns dense
// IDs from 1 and would need 2^31 distinct values to reach it, so base and
// overlay ID spaces can never collide; an overlay ID means "a value class
// this query introduced", which by construction overlaps nothing indexed.
const overlayIDBit uint32 = 1 << 31

// Overlay is a query-scoped Interner over a base Dict: lookups resolve
// through the base first, and values the base has never seen get transient
// high-bit IDs local to the overlay. Query sources routinely carry values
// the lake lacks; interning them into the shared append-only Dict would grow
// a long-lived session's memory without bound, so every query works against
// its own throwaway overlay instead. Equality classes are exactly the merged
// dictionary's — two values get the same ID through an Overlay iff they
// would through one Dict — so the ID paths stay bit-identical to the string
// reference.
type Overlay struct {
	base *Dict

	mu  sync.RWMutex
	idx classIndex // overlay-local IDs: overlayIDBit | 1, 2, …
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Dict) *Overlay {
	return &Overlay{base: base, idx: newClassIndex(0, 0, 0)}
}

// InternValue implements Interner: base IDs win, unseen values get
// overlay-local high-bit IDs.
func (o *Overlay) InternValue(v Value) uint32 {
	if v.Kind == KindNull {
		return NullID
	}
	e := entryOf(v)
	if id, ok := o.lookup(e); ok {
		return id
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	id, ok := o.idx.find(e)
	if !ok {
		id = overlayIDBit | uint32(o.idx.size()+1)
		o.idx.add(e, id)
	}
	return id
}

// lookup resolves e's class through the base, then the overlay's own IDs.
func (o *Overlay) lookup(e DictEntry) (uint32, bool) {
	if id, ok := o.base.lookup(e); ok {
		return id, true
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.idx.find(e)
}
