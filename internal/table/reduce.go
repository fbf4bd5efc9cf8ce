package table

import "encoding/binary"

// reducer holds what one deduplication, κ, β or minimal-form call reuses
// across its passes: the row identity map and β's count scratch. Passes work
// on row slots — indices into a row slice — so that a key group can be
// reduced apart from the rest of its table and its survivors still be put
// back in order.
type reducer struct {
	// vals names each cell by its ValueMap id, so two rows are the same
	// tuple exactly when their packed ids are (see identity).
	vals   *ValueMap
	buf    []byte
	counts []int
}

func newReducer(rows int) *reducer { return &reducer{vals: NewValueMap(rows)} }

// identity packs r's cell ids into the reducer's buffer, valid until the
// next call. Two rows get the same identity exactly when their Row.Key
// strings agree — ValueMap classes are Value.Key classes, and a null packs
// as 0, which Intern never assigns — but no key string is built.
func (x *reducer) identity(r Row) []byte {
	b := x.buf[:0]
	for _, v := range r {
		id, _ := x.vals.Intern(v)
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	x.buf = b
	return b
}

// distinct drops, in place, every slot of at whose row repeats an earlier
// slot's row, keeping first occurrences (and so their spellings) in order.
func (x *reducer) distinct(rows []Row, at []int) []int {
	seen := make(map[string]struct{}, len(at))
	out := at[:0]
	for _, i := range at {
		k := x.identity(rows[i])
		if _, dup := seen[string(k)]; !dup {
			seen[string(k)] = struct{}{}
			out = append(out, i)
		}
	}
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

// reduced returns a table with t's name, columns and key holding a copy of
// each row at the slots at, in that order.
func reduced(t *Table, rows []Row, at []int) *Table {
	out := New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	for _, i := range at {
		out.Rows = append(out.Rows, rows[i].Clone())
	}
	return out
}
