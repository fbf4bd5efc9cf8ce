// Package integrate implements Gen-T's Table Reclamation phase (Algorithm
// 2): originating tables are projected and selected down to the Source's
// columns and keys, inner-unioned when they share schemas, protected by
// labeled nulls wherever they correctly agree with a Source null, reduced to
// minimal form, and finally folded together with outer unions — applying
// complementation (κ) and subsumption (β) only when doing so does not lower
// the EIS score.
package integrate

import (
	"context"
	"strings"

	"gent/internal/table"
)

// Integrator reclaims one Source Table from sets of originating tables. It
// is stateful for label identities, so one Integrator must be used for one
// Source, by one goroutine at a time.
//
// Every source-key decision — ProjectSelect membership, labeling slots,
// minimal form's key groups, the guards' row grouping and scoring — goes
// through one table.KeyIndex over the Source: a source-local key space, so
// integration needs no value dictionary.
type Integrator struct {
	src *table.Table
	// keys numbers the Source's key tuples. labeledSrc shares the Source's
	// row order and key cells, so keys addresses both.
	keys *table.KeyIndex
	// labeledSrc is the Source with its nulls replaced by labels, so EIS
	// evaluation rewards preserving a correct null and penalizes filling it.
	labeledSrc *table.Table
	// labels[id*len(src.Cols)+c] is the label of the (source key id, source
	// column c) slot; 0 until first use.
	labels  []int64
	labelOf map[int64]bool
	nextID  int64
	// group is the scratch of the key grouping (KeyIndex.Groups) in
	// MinimalForm and the guards; all zeros between calls.
	group []int32
}

// New prepares an Integrator for the given Source Table, which must have a
// key.
func New(src *table.Table) *Integrator { return NewKeyed(src, table.NewKeyIndex(src)) }

// NewWith is New; dict is ignored. Integration aligns through the Source's
// own table.KeyIndex and needs no value dictionary — the function remains so
// existing callers compile.
func NewWith(src *table.Table, dict table.Interner) *Integrator { return New(src) }

// NewKeyed is New over keys, an index the caller already built over src
// (table.NewKeyIndex(src)) and shares with the query's other layers.
func NewKeyed(src *table.Table, keys *table.KeyIndex) *Integrator {
	in := &Integrator{src: src, keys: keys, labelOf: make(map[int64]bool), group: make([]int32, keys.Len())}
	in.labels = make([]int64, keys.Len()*len(src.Cols))
	in.labeledSrc = in.labelSourceNulls(src)
	return in
}

// label returns the stable label for a (source key id, source column) slot:
// the same slot gets the same label in every table, so labeled tuples still
// deduplicate, subsume and complement consistently.
func (in *Integrator) label(id, col int) table.Value {
	slot := &in.labels[id*len(in.src.Cols)+col]
	if *slot == 0 {
		in.nextID++
		*slot = in.nextID
		in.labelOf[in.nextID] = true
	}
	return table.Label(*slot)
}

// ProjectSelect applies Algorithm 2 line 3 to one originating table using
// the Integrator's source-key index: keep only rows whose key values appear
// in the Source and project them onto the Source's columns. Tables that do
// not carry the Source's key columns return nil — their rows can never align
// with a Source tuple, and Expand guarantees Gen-T's originating tables
// carry the key. It also returns nil when no row's key is the Source's.
func (in *Integrator) ProjectSelect(t *table.Table) *table.Table {
	keyIdx, ok := in.keys.ColsIn(t)
	if !ok {
		return nil
	}
	return selectProject(in.src, in.keys, keyIdx, t)
}

// ProjectSelect is the one-shot form of Integrator.ProjectSelect for callers
// without an Integrator; it indexes the Source's keys on every call. Unlike
// the integrator path — Gen-T's ReclaimContext, which drops key-less
// tables — it keeps key-less tables (projected and deduplicated), because its
// full-disjunction consumers (ALITE-PS) can still combine them through other
// shared columns.
func ProjectSelect(src, t *table.Table) *table.Table {
	if !t.HasCols(src.KeyCols()...) {
		p := t.Project(src.Cols...)
		if len(p.Cols) == 0 || len(p.Rows) == 0 {
			return nil
		}
		p.Key = nil
		return p.DropDuplicates()
	}
	keys := table.NewKeyIndex(src)
	keyIdx, _ := keys.ColsIn(t)
	return selectProject(src, keys, keyIdx, t)
}

// selectProject keeps the rows of t whose key tuple (at keyIdx) keys knows
// and projects only those onto the Source's columns that t has, in the
// Source's order as Table.Project does. The result has no key; it is nil
// when no row is kept.
func selectProject(src *table.Table, keys *table.KeyIndex, keyIdx []int, t *table.Table) *table.Table {
	kept := make([]int32, 0, len(t.Rows))
	for i, r := range t.Rows {
		if _, ok := keys.Lookup(r, keyIdx); ok {
			kept = append(kept, int32(i))
		}
	}
	if len(kept) == 0 {
		return nil
	}
	idx := make([]int, 0, len(src.Cols))
	names := make([]string, 0, len(src.Cols))
	for _, c := range src.Cols {
		if i := t.ColIndex(c); i >= 0 {
			idx = append(idx, i)
			names = append(names, c)
		}
	}
	sel := &table.Table{Name: t.Name, Cols: names, Rows: make([]table.Row, len(kept))}
	// One slab holds every kept row's cells; each row is capped to its own
	// range, so no row can grow into the next.
	cells := make([]table.Value, len(kept)*len(idx))
	for k, i := range kept {
		nr := cells[k*len(idx) : (k+1)*len(idx) : (k+1)*len(idx)]
		for j, c := range idx {
			nr[j] = t.Rows[i][c]
		}
		sel.Rows[k] = nr
	}
	return sel
}

// ReclaimContext integrates the originating tables into a possible reclaimed
// Source Table with exactly the Source's schema. Cancellation is checked
// before each originating table's ProjectSelect and before each step of the
// outer-union fold (the integration loop's per-table guarded merge is the
// expensive unit of work), returning ctx.Err() with a nil table.
func (in *Integrator) ReclaimContext(ctx context.Context, origs []*table.Table) (*table.Table, error) {
	src := in.src

	// ProjectSelect (line 3): keep only Source columns and rows whose key
	// values appear in the Source. Gen-T's originating tables carry the
	// Source key (Expand guarantees it), so key-less leftovers — whose
	// tuples could never align — come back nil and are dropped here.
	kept := make([]*table.Table, 0, len(origs))
	for _, t := range origs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sel := in.ProjectSelect(t); sel != nil {
			kept = append(kept, sel)
		}
	}
	if len(kept) == 0 {
		out := table.New("reclaimed")
		return out.PadNullColumns(src.Cols), nil
	}

	// InnerUnion (line 4): merge tables with identical column-name sets.
	unioned := innerUnionGroups(kept)

	// LabelSourceNulls (line 5) and TakeMinimalForm (line 6). Grouped by
	// the Source's key ids, MinimalForm reduces one source-key group at a
	// time: every row's key is a Source key after ProjectSelect.
	for i, t := range unioned {
		labeled := in.labelSourceNulls(t)
		labeled.Key, _ = in.keys.ColsIn(labeled)
		unioned[i] = table.MinimalForm(labeled, in.keys, in.group)
	}

	// Integration loop (lines 7–13): outer union one table at a time, then
	// apply complementation and subsumption under the Figure 5 guard — a
	// merge or removal happens only when it does not reduce the affected
	// tuple's error-aware similarity to its Source tuple. After each union
	// the accumulator is relabeled: ⊎ introduces nulls for columns a side
	// lacked, and where the Source is also null those are "correct nulls"
	// that must not be filled by a later complementation. Labeling is
	// idempotent — each (key, column) slot has one stable label.
	acc := unioned[0]
	for _, t := range unioned[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acc = in.labelSourceNulls(table.OuterUnion(acc, t))
		acc = in.guardedComplement(acc)
		acc = in.guardedSubsume(acc)
	}
	if len(unioned) == 1 {
		acc = in.labelSourceNulls(acc)
		acc = in.guardedComplement(acc)
		acc = in.guardedSubsume(acc)
	}

	// RemoveLabeledNulls (line 14) and schema padding (lines 15–16) in one
	// pass: every tuple is rebuilt in the Source's column order, null in a
	// column no originating table had and wherever it holds a label. Rows
	// that turn out equal are then dropped, first occurrences kept.
	out := table.New("reclaimed:"+src.Name, src.Cols...)
	at := make([]int, len(src.Cols))
	for i, name := range src.Cols {
		at[i] = acc.ColIndex(name)
	}
	out.Rows = make([]table.Row, 0, len(acc.Rows))
	for _, r := range acc.Rows {
		nr := make(table.Row, len(at)) // all table.Null, the zero Value
		for i, j := range at {
			if j >= 0 && !(r[j].Kind == table.KindLabel && in.labelOf[r[j].ID]) {
				nr[i] = r[j]
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out.DropDuplicates(), nil
}

// labelSourceNulls replaces, in t, every null that sits in a slot where the
// Source is also null (same key, same column) with that slot's unique label.
// Only rows it labels are copied; the others are shared with t.
func (in *Integrator) labelSourceNulls(t *table.Table) *table.Table {
	src := in.src
	keyIdx, _ := in.keys.ColsIn(t) // nil matches no row: nothing is labeled
	srcColOf := make([]int, len(t.Cols))
	for i, name := range t.Cols {
		srcColOf[i] = src.ColIndex(name)
	}
	out := table.New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	out.Rows = make([]table.Row, 0, len(t.Rows))
	for _, r := range t.Rows {
		if id, ok := in.keys.Lookup(r, keyIdx); ok {
			srow := src.Rows[in.keys.Rep(id)]
			copied := false
			for i, v := range r {
				if sc := srcColOf[i]; sc >= 0 && v.IsNull() && srow[sc].IsNull() {
					if !copied {
						r, copied = r.Clone(), true
					}
					r[i] = in.label(id, sc)
				}
			}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// innerUnionGroups unions tables with identical column-name sets, reducing
// the integration space (Algorithm 2 line 4).
func innerUnionGroups(ts []*table.Table) []*table.Table {
	groups := make(map[string]*table.Table)
	var order []string
	for _, t := range ts {
		sig := schemaSignature(t)
		if have, ok := groups[sig]; ok {
			groups[sig] = table.InnerUnion(have, t)
		} else {
			groups[sig] = t
			order = append(order, sig)
		}
	}
	out := make([]*table.Table, 0, len(order))
	for _, sig := range order {
		out = append(out, groups[sig])
	}
	return out
}

func schemaSignature(t *table.Table) string {
	cols := append([]string(nil), t.Cols...)
	// Column order is irrelevant to inner union, so the signature sorts.
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	return strings.Join(cols, "\x01")
}
