package table

import (
	"encoding/binary"
	"hash/maphash"
)

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

// SameRow reports whether two rows of the same width are Equal cell by
// cell, that is whether their Row.Key strings are equal, without building
// them.
func SameRow(a, b Row) bool {
	for i, v := range a {
		if !v.Equal(b[i]) {
			return false
		}
	}
	return true
}

// distinct drops, in place, every row of rows that repeats an earlier one
// under Row.Key equality, keeping first occurrences (and so their spellings)
// in order. Kept rows are chained by rowHash and a new row is compared only
// along its hash's chain, so no key string is built.
func distinct(rows []Row) []Row {
	// last[h] and prev[k] are 1-based positions in out: the latest kept row
	// with hash h, and the kept row before out[k] with out[k]'s hash.
	last := make(map[uint64]int, len(rows))
	prev := make([]int, 0, len(rows))
	out := rows[:0]
	for _, r := range rows {
		h := rowHash(r)
		head := last[h]
		k := head
		for k != 0 && !SameRow(out[k-1], r) {
			k = prev[k-1]
		}
		if k == 0 {
			out = append(out, r)
			prev = append(prev, head)
			last[h] = len(out)
		}
	}
	return out
}
