package table

// ValueMap is a small, single-writer value→uint32 index under Value.Key
// equality: two values map to the same slot exactly when Value.Key agrees
// (numeric-text strings collapse onto their number, ±0 and all NaNs share a
// slot), the same equivalence the lake Dict assigns IDs by. Unlike the Dict
// it takes no locks and holds only the values its owner put in, so probes
// stay in cache — it exists for hot read paths (KeyIndex numbers each key
// position with one) that would otherwise pay a read-lock plus a lake-sized
// map probe per cell. Concurrent reads are safe once writes stop; writes are
// not synchronized.
type ValueMap struct {
	strs   map[string]uint32
	nums   map[uint64]uint32
	labels map[int64]uint32
	n      uint32
}

// NewValueMap returns an empty map sized for about n values.
func NewValueMap(n int) *ValueMap {
	return &ValueMap{
		strs:   make(map[string]uint32, n),
		nums:   make(map[uint64]uint32, n),
		labels: make(map[int64]uint32),
	}
}

// Put binds v to id, overwriting any previous binding. Nulls are ignored.
func (m *ValueMap) Put(v Value, id uint32) {
	switch v.Kind {
	case KindNull:
	case KindLabel:
		m.labels[v.ID] = id
	case KindNumber:
		m.nums[canonicalBits(v.Num)] = id
	default: // KindString
		if f, ok := parseDecimal(v.Str); ok {
			m.nums[canonicalBits(f)] = id
		} else {
			m.strs[v.Str] = id
		}
	}
}

// Get returns v's binding; ok is false for nulls and unbound values.
func (m *ValueMap) Get(v Value) (uint32, bool) {
	switch v.Kind {
	case KindNull:
		return 0, false
	case KindLabel:
		id, ok := m.labels[v.ID]
		return id, ok
	case KindNumber:
		id, ok := m.nums[canonicalBits(v.Num)]
		return id, ok
	default: // KindString
		if f, ok := parseDecimal(v.Str); ok {
			id, ok := m.nums[canonicalBits(f)]
			return id, ok
		}
		id, ok := m.strs[v.Str]
		return id, ok
	}
}

// Intern returns v's binding, assigning ids 1, 2, … in first-sight order
// (0 is never assigned). ok is false only for nulls.
func (m *ValueMap) Intern(v Value) (uint32, bool) {
	if id, ok := m.Get(v); ok {
		return id, true
	}
	if v.Kind == KindNull {
		return 0, false
	}
	m.n++
	m.Put(v, m.n)
	return m.n, true
}
