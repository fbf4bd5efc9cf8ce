package table

import "encoding/binary"

// KeyIndex is the source-key space: it numbers the distinct non-null key
// tuples of a keyed table densely (0, 1, …) in first-seen row order, under
// Value.Key equality — the rule by which Gen-T aligns a lake tuple with a
// Source tuple (they share a key value). Matrix traversal, integration and
// the metrics align through it, one instance per query: the pipeline builds
// it once over the Source and hands it to every layer.
//
// Each key position numbers its own distinct value classes in a classIndex
// (local ids from 1, the classes the Dict assigns IDs by); a tuple is the
// byte string of its positions' local ids, one rule for every arity. Lookups
// take no locks and never consult the lake dictionary: a value absent from a
// position matches no indexed key there. A KeyIndex is immutable after
// NewKeyIndex and safe for concurrent use.
type KeyIndex struct {
	cols []string     // the indexed table's key column names, in key order
	pos  []classIndex // per key position: value class → local id (from 1)
	ids  map[string]int
	// rowIDs[i] is row i's id, -1 when its key contains a null.
	rowIDs []int
	// rep[id] is the last row carrying id.
	rep []int
}

// NewKeyIndex indexes t's rows by t.Key. A table without a key indexes no
// tuple: every row's id is -1, as Table.RowKey returns "" for every row.
func NewKeyIndex(t *Table) *KeyIndex {
	x := &KeyIndex{
		cols:   t.KeyCols(),
		pos:    make([]classIndex, len(t.Key)),
		ids:    make(map[string]int, len(t.Rows)),
		rowIDs: make([]int, len(t.Rows)),
	}
	for p := range x.pos {
		x.pos[p] = newClassIndex(len(t.Rows), len(t.Rows), 0)
	}
	var buf [keyBufLen]byte
	for i, r := range t.Rows {
		b, ok := x.pack(buf[:0], r, t.Key, true)
		if !ok {
			x.rowIDs[i] = -1
			continue
		}
		id, seen := x.ids[string(b)]
		if !seen {
			id = len(x.rep)
			x.ids[string(b)] = id
			x.rep = append(x.rep, i)
		} else {
			x.rep[id] = i
		}
		x.rowIDs[i] = id
	}
	return x
}

// keyBufLen sizes the stack buffer a packed tuple is built in: keys of up to
// 16 columns never touch the heap.
const keyBufLen = 64

// pack appends the local ids of r's key cells (at keyCols, in key order) to
// b; intern assigns ids to unseen values. ok is false for a null cell, an
// unseen value when not interning, or a column count that is not the arity.
func (x *KeyIndex) pack(b []byte, r Row, keyCols []int, intern bool) ([]byte, bool) {
	if len(keyCols) == 0 || len(keyCols) != len(x.pos) {
		return nil, false
	}
	for p, c := range keyCols {
		v, pos := r[c], &x.pos[p]
		if v.Kind == KindNull {
			return nil, false
		}
		id, ok := pos.lookup(v)
		if !ok && intern {
			id, ok = uint32(pos.size())+1, true
			pos.add(entryOf(v), id)
		}
		if !ok {
			return nil, false
		}
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	return b, true
}

// Len returns the number of distinct non-null key tuples; ids are 0..Len()-1.
func (x *KeyIndex) Len() int { return len(x.rep) }

// RowIDs returns each indexed row's id, -1 for a row whose key contains a
// null. The slice is shared; callers must not modify it.
func (x *KeyIndex) RowIDs() []int { return x.rowIDs }

// Rep returns the representative row of id: the last indexed row carrying
// that key.
func (x *KeyIndex) Rep(id int) int { return x.rep[id] }

// Lookup returns the id of the key tuple in r's cells at keyCols (one column
// per key position, in key order), for a row of any table; ok is false, and
// the id -1, when a cell is null or the tuple keys no indexed row.
func (x *KeyIndex) Lookup(r Row, keyCols []int) (int, bool) {
	var buf [keyBufLen]byte
	b, ok := x.pack(buf[:0], r, keyCols, false)
	if !ok {
		return -1, false
	}
	id, ok := x.ids[string(b)]
	if !ok {
		return -1, false
	}
	return id, true
}

// ColsIn returns the positions in t of the indexed table's key columns, by
// name and in key order — the keyCols Lookup takes for t's rows; ok is false
// when t lacks one of them.
func (x *KeyIndex) ColsIn(t *Table) ([]int, bool) {
	idx := make([]int, len(x.cols))
	for i, name := range x.cols {
		if idx[i] = t.ColIndex(name); idx[i] < 0 {
			return nil, false
		}
	}
	return idx, true
}
