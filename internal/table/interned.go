package table

import (
	"slices"
)

// Interned is the columnar ID form of a table: every cell mapped through a
// Dict once, so the hot paths (index builds, overlap search, alignment)
// operate on dense uint32 IDs instead of re-hashing canonical strings.
// An Interned form is immutable after construction and row-aligned with its
// table: Cols[c][r] corresponds to Table.Rows[r][c], so a Rename or Clone of
// the table (which preserves row order) can keep using the same form.
type Interned struct {
	// Table is the table this form was interned from.
	Table *Table
	// Cols[c][r] is the dictionary ID of cell (r, c); NullID marks ⊥.
	Cols [][]uint32
	// sets[c] is the sorted distinct non-null ID set of column c.
	sets [][]uint32
}

// InternTable maps every cell of t through d. Labeled nulls intern like any
// other non-null value.
func InternTable(d Interner, t *Table) *Interned { return internCells(t, d.InternValue) }

// internCells builds t's interned form, mapping every cell through id in row
// order.
func internCells(t *Table, id func(Value) uint32) *Interned {
	it := &Interned{
		Table: t,
		Cols:  make([][]uint32, len(t.Cols)),
		sets:  make([][]uint32, len(t.Cols)),
	}
	for c := range t.Cols {
		it.Cols[c] = make([]uint32, len(t.Rows))
	}
	for ri, r := range t.Rows {
		for c, v := range r {
			it.Cols[c][ri] = id(v)
		}
	}
	for c := range t.Cols {
		it.sets[c] = distinctSorted(it.Cols[c])
	}
	return it
}

// ColumnIDs returns the sorted distinct non-null IDs of column c — the ID
// analogue of Table.ColumnSet. Callers must not mutate the returned slice.
func (it *Interned) ColumnIDs(c int) []uint32 { return it.sets[c] }

// Retargeted returns an interned form with the same IDs bound to t, which
// must be cell-aligned with it.Table — e.g. a renamed shallow copy sharing
// the original's rows. No cell is re-hashed.
func (it *Interned) Retargeted(t *Table) *Interned {
	return &Interned{Table: t, Cols: it.Cols, sets: it.sets}
}

// PreInterned is a table interned against a private scratch index: the
// parallel half of a deterministic two-phase lake intern. Several tables can
// pre-intern concurrently with no shared state; Merge then folds each into
// the shared dictionary serially, in lake order, reproducing exactly the IDs
// a fully serial InternTable pass would have assigned (both assign a value's
// ID at its first occurrence in the same scan order).
type PreInterned struct {
	it *Interned
	// entries holds the scratch classes in first-sight order: local ID
	// i+1 ↔ entries[i].
	entries []DictEntry
}

// PreInternTable interns t against a fresh scratch index. Nothing else
// touches the index, so it takes no locks.
func PreInternTable(t *Table) *PreInterned {
	p := &PreInterned{}
	local := newClassIndex(0, 0, 0)
	p.it = internCells(t, func(v Value) uint32 {
		if v.Kind == KindNull {
			return NullID
		}
		id, ok := local.lookup(v)
		if !ok {
			e := entryOf(v)
			p.entries = append(p.entries, e)
			id = uint32(len(p.entries))
			local.add(e, id)
		}
		return id
	})
	return p
}

// Merge remaps the pre-interned form onto d — interning each distinct value
// once — and returns the final form. A PreInterned is consumed by its Merge
// and must not be reused.
func (p *PreInterned) Merge(d *Dict) *Interned {
	remap := make([]uint32, len(p.entries)+1) // remap[NullID] stays NullID
	for i, e := range p.entries {
		remap[i+1] = d.internEntry(e)
	}
	for _, col := range p.it.Cols {
		for ri, id := range col {
			col[ri] = remap[id]
		}
	}
	for _, set := range p.it.sets {
		for i, id := range set {
			set[i] = remap[id] // distinct in, distinct out: remap is injective
		}
		slices.Sort(set)
	}
	return p.it
}

// distinctSorted returns the sorted distinct non-null IDs of a column.
func distinctSorted(col []uint32) []uint32 {
	out := make([]uint32, 0, len(col))
	for _, id := range col {
		if id != NullID {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	n := 0
	for i, id := range out {
		if i == 0 || id != out[n-1] {
			out[n] = id
			n++
		}
	}
	return out[:n]
}

// IntersectIDs returns |a ∩ b| over two sorted distinct ID slices.
func IntersectIDs(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// ContainsIDs reports a ⊇ b over two sorted distinct ID slices.
func ContainsIDs(a, b []uint32) bool {
	i := 0
	for _, id := range b {
		for i < len(a) && a[i] < id {
			i++
		}
		if i >= len(a) || a[i] != id {
			return false
		}
		i++
	}
	return true
}
