package table

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
)

// NullID is the reserved dictionary ID of the missing value ⊥. It is never
// assigned to a real value, so a zeroed []uint32 column cell reads as null.
const NullID uint32 = 0

// Dict is the lake-wide value dictionary: a concurrent, append-only interner
// mapping cell values to dense uint32 IDs, shared by every substrate built
// over one lake (inverted index, MinHash-LSH, the semantic index, discovery)
// so that each distinct value is hashed once and every hot path afterwards
// runs on IDs. Matrix traversal and integration align rows on the Source's
// own key space instead (KeyIndex) and need no dictionary.
//
// ID-stability contract:
//
//   - IDs are assigned densely starting at 1, in first-intern order, and are
//     never reused, reassigned or removed — interning is append-only, so an
//     ID observed by any reader keeps meaning the same value for the life of
//     the Dict and of every snapshot persisted from it.
//   - Two values receive the same ID exactly when their canonical keys
//     (Value.Key) are equal: numeric-text strings collapse onto their number
//     (as Key does), ±0 share one entry, and all NaNs share one entry. ID
//     equality is therefore Key-string equality, which is what lets the
//     ID-based pipelines reproduce the string-based reference bit for bit.
//   - NullID (0) is reserved for ⊥ and never assigned.
//
// All methods are safe for concurrent use; lookups take a read lock and
// interning upgrades to a write lock only on first sight of a value.
type Dict struct {
	mu      sync.RWMutex
	strs    map[string]uint32
	nums    map[uint64]uint32
	labels  map[int64]uint32
	entries []DictEntry
	// fp memoizes Fingerprint over the first fpLen entries; fpLen is -1
	// until the first computation (0 must not alias "empty dict hashed").
	fp    uint64
	fpLen int
	// chain[i] is the chained fingerprint of the first i entries (chain[0]
	// covers the empty prefix), extended lazily — append-only entries make
	// every computed prefix permanent. PrefixStamp/VerifyPrefixStamp read it
	// in O(1) amortized, which is what lets thousands of segment files each
	// carry (and check) the stamp of the dictionary length they were written
	// at without an O(dict) hash per file.
	chain []uint64
}

// DictEntry is one persisted dictionary entry; entry i of a snapshot holds
// the value with ID i+1. Exactly one of the payload fields is meaningful,
// selected by Kind (KindString, KindNumber or KindLabel).
type DictEntry struct {
	Kind  Kind
	Str   string // raw text for KindString entries
	Bits  uint64 // canonical Float64bits for KindNumber entries
	Label int64  // label identity for KindLabel entries
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		strs:   make(map[string]uint32),
		nums:   make(map[uint64]uint32),
		labels: make(map[int64]uint32),
		fpLen:  -1,
	}
}

// canonicalBits collapses floats onto Key()'s equivalence classes: ±0 share
// one representation and so do all NaN payloads.
func canonicalBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// entryOf maps a non-null value to its dictionary entry form, applying the
// same equivalence classes as Value.Key.
func entryOf(v Value) DictEntry {
	switch v.Kind {
	case KindLabel:
		return DictEntry{Kind: KindLabel, Label: v.ID}
	case KindNumber:
		return DictEntry{Kind: KindNumber, Bits: canonicalBits(v.Num)}
	default: // KindString
		if f, ok := parseDecimal(v.Str); ok {
			return DictEntry{Kind: KindNumber, Bits: canonicalBits(f)}
		}
		return DictEntry{Kind: KindString, Str: v.Str}
	}
}

// find looks an entry up under a held lock.
func (d *Dict) find(e DictEntry) (uint32, bool) {
	switch e.Kind {
	case KindString:
		id, ok := d.strs[e.Str]
		return id, ok
	case KindNumber:
		id, ok := d.nums[e.Bits]
		return id, ok
	default:
		id, ok := d.labels[e.Label]
		return id, ok
	}
}

// InternValue returns v's ID, assigning the next one on first sight. Nulls
// return NullID without touching the dictionary.
func (d *Dict) InternValue(v Value) uint32 {
	if v.Kind == KindNull {
		return NullID
	}
	return d.internEntry(entryOf(v))
}

func (d *Dict) internEntry(e DictEntry) uint32 {
	d.mu.RLock()
	id, ok := d.find(e)
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.find(e); ok {
		return id
	}
	id = uint32(len(d.entries)) + 1
	d.entries = append(d.entries, e)
	switch e.Kind {
	case KindString:
		d.strs[e.Str] = id
	case KindNumber:
		d.nums[e.Bits] = id
	default:
		d.labels[e.Label] = id
	}
	return id
}

// LookupValue returns v's ID without interning; ok is false when v's value
// class has never been interned (nulls report NullID, true).
func (d *Dict) LookupValue(v Value) (uint32, bool) {
	if v.Kind == KindNull {
		return NullID, true
	}
	e := entryOf(v)
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.find(e)
}

// ValueOf reconstructs the value of an assigned ID (numeric entries come
// back as canonical-text numbers). It panics on an unassigned non-null ID,
// which is always a programming error under the stability contract.
func (d *Dict) ValueOf(id uint32) Value {
	if id == NullID {
		return Null
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	e := d.entries[id-1]
	switch e.Kind {
	case KindString:
		return S(e.Str)
	case KindNumber:
		return N(math.Float64frombits(e.Bits))
	default:
		return Label(e.Label)
	}
}

// Len returns the number of assigned IDs; IDs 1..Len() are valid.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Snapshot copies the entries in ID order (entry i holds ID i+1), the
// persistable form of the dictionary. Interning concurrent with Snapshot may
// or may not be included, but the returned prefix is always consistent.
func (d *Dict) Snapshot() []DictEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]DictEntry, len(d.entries))
	copy(out, d.entries)
	return out
}

// prefixChainSeed is chain[0]: a non-zero base so the stamp of an empty
// prefix cannot alias an unset (zero) stamp field in a persisted footer.
const prefixChainSeed = 0x9e3779b97f4a7c15

// extendChainLocked grows the cumulative prefix-fingerprint chain to cover
// the first n entries; d.mu must be held for writing.
func (d *Dict) extendChainLocked(n int) {
	if len(d.chain) == 0 {
		d.chain = append(d.chain, prefixChainSeed)
	}
	for i := len(d.chain) - 1; i < n; i++ {
		e := d.entries[i]
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], d.chain[i])
		h.Write(b[:])
		h.Write([]byte{byte(e.Kind)})
		switch e.Kind {
		case KindString:
			h.Write([]byte(e.Str))
		case KindNumber:
			binary.LittleEndian.PutUint64(b[:], e.Bits)
			h.Write(b[:])
		default:
			binary.LittleEndian.PutUint64(b[:], uint64(e.Label))
			h.Write(b[:])
		}
		d.chain = append(d.chain, h.Sum64())
	}
}

// PrefixStamp returns the dictionary's current length and the chained
// fingerprint of exactly that prefix — the stamp a segment file written under
// this dictionary carries. Because entries are append-only, a stamp taken now
// stays verifiable for the life of the lake, however much the dictionary
// grows afterwards.
func (d *Dict) PrefixStamp() (n int, fp uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n = len(d.entries)
	d.extendChainLocked(n)
	return n, d.chain[n]
}

// VerifyPrefixStamp reports whether this dictionary's first n entries hash to
// fp — i.e. whether IDs 1..n persisted under the stamped dictionary mean the
// same values here. n beyond the dictionary's length can never verify.
func (d *Dict) VerifyPrefixStamp(n int, fp uint64) bool {
	if n < 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > len(d.entries) {
		return false
	}
	d.extendChainLocked(n)
	return d.chain[n] == fp
}

// PrefixOf reports whether d's entries are a prefix of o's — every ID
// assigned by d means the same value under o. A dictionary is always a
// prefix of itself, and a Snapshot-restored dictionary is a prefix of the
// live dictionary it was snapshotted from (append-only growth), which is
// what lets persisted ID-keyed indexes serve a lake whose dictionary has
// since grown.
func (d *Dict) PrefixOf(o *Dict) bool {
	if d == o {
		return true
	}
	oe := o.Snapshot()
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.entries) > len(oe) {
		return false
	}
	for i, e := range d.entries {
		if oe[i] != e {
			return false
		}
	}
	return true
}

// NewDictFromSnapshot rebuilds a dictionary from a persisted snapshot,
// reassigning each entry its original ID. Duplicate or null entries mean the
// snapshot was not produced by Snapshot and are rejected. The maps are sized
// from the snapshot up front, so a restore never rehashes.
func NewDictFromSnapshot(entries []DictEntry) (*Dict, error) {
	var nstr, nnum int
	for _, e := range entries {
		switch e.Kind {
		case KindString:
			nstr++
		case KindNumber:
			nnum++
		}
	}
	d := &Dict{
		strs:    make(map[string]uint32, nstr),
		nums:    make(map[uint64]uint32, nnum),
		labels:  make(map[int64]uint32, len(entries)-nstr-nnum),
		entries: make([]DictEntry, 0, len(entries)),
		fpLen:   -1,
	}
	for i, e := range entries {
		switch e.Kind {
		case KindString, KindNumber, KindLabel:
		default:
			return nil, fmt.Errorf("table: dict entry %d has kind %d", i, e.Kind)
		}
		if _, dup := d.find(e); dup {
			return nil, fmt.Errorf("table: duplicate dict entry at ID %d", i+1)
		}
		id := uint32(i) + 1
		d.entries = append(d.entries, e)
		switch e.Kind {
		case KindString:
			d.strs[e.Str] = id
		case KindNumber:
			d.nums[e.Bits] = id
		default:
			d.labels[e.Label] = id
		}
	}
	return d, nil
}
