package table

import (
	"encoding/binary"
	"hash/maphash"
)

// reducer holds what one deduplication, κ, β or minimal-form call reuses
// across its passes: distinct's hash-chain scratch and β's count scratch.
// Passes work on row slots — indices into a row slice — so that a key group
// can be reduced apart from the rest of its table and its survivors still be
// put back in order.
type reducer struct {
	prev   []int
	counts []int
}

// rowSeed seeds rowHash. Any seed gives the same result: distinct confirms
// every hash match with SameRow.
var rowSeed = maphash.MakeSeed()

// rowHash hashes r's cells by value class (entryOf), so that rows whose
// Row.Key strings agree hash alike. It is a variable so that tests can force
// collisions.
var rowHash = func(r Row) uint64 {
	var h maphash.Hash
	h.SetSeed(rowSeed)
	var b [9]byte
	for _, v := range r {
		e := entryOf(v)
		// entryOf sets at most one payload field, so OR-ing them is exact.
		b[0] = byte(e.Kind)
		binary.LittleEndian.PutUint64(b[1:], e.Bits|uint64(e.Label)|uint64(len(e.Str)))
		h.Write(b[:])
		h.WriteString(e.Str)
	}
	return h.Sum64()
}

// SameRow reports whether two rows of the same width agree cell by cell
// under Value.Key equality, that is whether their Row.Key strings are
// equal, without building them.
func SameRow(a, b Row) bool {
	for i, v := range a {
		if entryOf(v) != entryOf(b[i]) {
			return false
		}
	}
	return true
}

// distinct drops, in place, every slot of at whose row repeats an earlier
// slot's row under Row.Key equality, keeping first occurrences (and so their
// spellings) in order. Kept rows are chained by rowHash and a new row is
// compared only along its hash's chain, so no key string is built.
func (x *reducer) distinct(rows []Row, at []int) []int {
	// last[h] and prev[k] are 1-based positions in out: the latest kept row
	// with hash h, and the kept row before out[k] with out[k]'s hash.
	last := make(map[uint64]int, len(at))
	prev := x.prev[:0]
	out := at[:0]
	for _, i := range at {
		h := rowHash(rows[i])
		head := last[h]
		k := head
		for k != 0 && !SameRow(rows[out[k-1]], rows[i]) {
			k = prev[k-1]
		}
		if k == 0 {
			out = append(out, i)
			prev = append(prev, head)
			last[h] = len(out)
		}
	}
	x.prev = prev
	return out
}

// slots returns 0, 1, …, n-1.
func slots(n int) []int {
	at := make([]int, n)
	for i := range at {
		at[i] = i
	}
	return at
}

// reduced returns a table with t's name, columns and key over the rows at
// the slots at, in that order. It shares those rows (see the package doc).
func reduced(t *Table, rows []Row, at []int) *Table {
	out := New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	if len(at) > 0 {
		out.Rows = make([]Row, len(at))
	}
	for k, i := range at {
		out.Rows[k] = rows[i]
	}
	return out
}
