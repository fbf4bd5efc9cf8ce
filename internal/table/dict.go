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
// over one lake (inverted index, MinHash-LSH, discovery)
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
//   - Two values receive the same ID exactly when they are Equal, that is
//     when their canonical keys (Value.Key) are equal: numeric-text strings
//     collapse onto their number, ±0 share one entry, and all NaNs share
//     one entry. ID equality is therefore Value.Equal and Key-string
//     equality at once, which is what lets the ID-based pipelines reproduce
//     the Value-based reference bit for bit.
//     entryOf forms the class and a classIndex numbers it, the same pair an
//     Overlay, PreInternTable and KeyIndex number values with.
//   - NullID (0) is reserved for ⊥ and never assigned.
//
// All methods are safe for concurrent use; lookups take a read lock and
// interning upgrades to a write lock only on first sight of a value.
type Dict struct {
	mu      sync.RWMutex
	idx     classIndex
	entries []DictEntry
	// chain[i] is the chained fingerprint of the first i entries (chain[0]
	// covers the empty prefix), extended lazily — append-only entries make
	// every computed prefix permanent. PrefixStamp/VerifyPrefixStamp read it
	// in O(1) amortized, which is what lets thousands of segment files and
	// the inverted index file each carry (and check) the stamp of the
	// dictionary length they were written at without an O(dict) hash per
	// file.
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
	return &Dict{idx: newClassIndex(0, 0, 0)}
}

// canonicalBits collapses floats onto Equal's and Key's equivalence
// classes: ±0 share one representation and so do all NaN payloads.
func canonicalBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// entryOf maps a value to its class, applying the same equivalence classes
// as Value.Equal and Value.Key: the dictionary entry form of a non-null
// value, and the zero entry (KindNull), which no dictionary holds, for a
// null.
func entryOf(v Value) DictEntry {
	switch v.Kind {
	case KindNull:
		return DictEntry{}
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

// classIndex is the one index from value classes to uint32 IDs: the Dict,
// an Overlay's local IDs, PreInternTable's scratch and each KeyIndex key
// position hold one. A class is a non-null entry as entryOf forms it, and
// each kind keys its own typed map, so a lookup hashes one string, uint64 or
// int64 and never allocates. It takes no locks: a holder shared across
// goroutines locks around it.
type classIndex struct {
	strs   map[string]uint32
	nums   map[uint64]uint32
	labels map[int64]uint32
}

// newClassIndex returns an empty index sized for about strs string, nums
// number and labels label classes.
func newClassIndex(strs, nums, labels int) classIndex {
	return classIndex{
		strs:   make(map[string]uint32, strs),
		nums:   make(map[uint64]uint32, nums),
		labels: make(map[int64]uint32, labels),
	}
}

// find returns the ID bound to e's class.
func (c *classIndex) find(e DictEntry) (uint32, bool) {
	switch e.Kind {
	case KindString:
		id, ok := c.strs[e.Str]
		return id, ok
	case KindNumber:
		id, ok := c.nums[e.Bits]
		return id, ok
	default:
		id, ok := c.labels[e.Label]
		return id, ok
	}
}

// lookup returns the ID of a non-null v's class: find(entryOf(v)), with
// the common case, text that is not a number, taken straight to the string
// map without building the entry.
func (c *classIndex) lookup(v Value) (uint32, bool) {
	if v.Kind == KindString {
		if _, num := parseDecimal(v.Str); !num {
			id, ok := c.strs[v.Str]
			return id, ok
		}
	}
	return c.find(entryOf(v))
}

// add binds e's class, which must be unbound, to id.
func (c *classIndex) add(e DictEntry, id uint32) {
	switch e.Kind {
	case KindString:
		c.strs[e.Str] = id
	case KindNumber:
		c.nums[e.Bits] = id
	default:
		c.labels[e.Label] = id
	}
}

// size returns the number of bound classes.
func (c *classIndex) size() int { return len(c.strs) + len(c.nums) + len(c.labels) }

// InternValue returns v's ID, assigning the next one on first sight. Nulls
// return NullID without touching the dictionary.
func (d *Dict) InternValue(v Value) uint32 {
	if v.Kind == KindNull {
		return NullID
	}
	return d.internEntry(entryOf(v))
}

func (d *Dict) internEntry(e DictEntry) uint32 {
	if id, ok := d.lookup(e); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.idx.find(e)
	if !ok {
		d.entries = append(d.entries, e)
		id = uint32(len(d.entries))
		d.idx.add(e, id)
	}
	return id
}

// lookup returns the ID of e's class under the read lock.
func (d *Dict) lookup(e DictEntry) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.idx.find(e)
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
// fingerprint of exactly that prefix — the stamp a segment file or an
// inverted index file written under this dictionary carries. Because entries are append-only, a stamp taken now
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

// NewDictFromSnapshot rebuilds a dictionary from a persisted snapshot,
// reassigning each entry its original ID. An entry Snapshot cannot produce —
// a null or unknown kind, numeric text as a string, a number whose bits are
// not canonical (-0, a NaN payload), a duplicate — could never be looked up,
// so the snapshot is rejected. The maps are sized from the snapshot up front,
// so a restore never rehashes.
func NewDictFromSnapshot(entries []DictEntry) (*Dict, error) {
	var nstr, nnum int
	for i, e := range entries {
		switch e.Kind {
		case KindString:
			if _, num := parseDecimal(e.Str); num {
				return nil, fmt.Errorf("table: dict entry %d is numeric text %q", i, e.Str)
			}
			nstr++
		case KindNumber:
			if e.Bits != canonicalBits(math.Float64frombits(e.Bits)) {
				return nil, fmt.Errorf("table: dict entry %d has non-canonical number bits %#x", i, e.Bits)
			}
			nnum++
		case KindLabel:
		default:
			return nil, fmt.Errorf("table: dict entry %d has kind %d", i, e.Kind)
		}
	}
	d := &Dict{
		idx:     newClassIndex(nstr, nnum, len(entries)-nstr-nnum),
		entries: make([]DictEntry, 0, len(entries)),
	}
	for i, e := range entries {
		if _, dup := d.idx.find(e); dup {
			return nil, fmt.Errorf("table: duplicate dict entry at ID %d", i+1)
		}
		d.entries = append(d.entries, e)
		d.idx.add(e, uint32(len(d.entries)))
	}
	return d, nil
}
