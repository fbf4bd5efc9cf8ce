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
	"fmt"
	"strings"

	"gent/internal/table"
)

// Integrator reclaims one Source Table from sets of originating tables. It
// is stateful only for label identities, so one Integrator must be used for
// one Source.
//
// Every source-key decision — ProjectSelect membership, labeling slots, the
// guards' row grouping and scoring — goes through one table.KeyIndex over
// the Source: a source-local key space, so integration needs no value
// dictionary.
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
}

// New prepares an Integrator for the given Source Table, which must have a
// key.
func New(src *table.Table) *Integrator {
	in := &Integrator{src: src, keys: table.NewKeyIndex(src), labelOf: make(map[int64]bool)}
	in.labels = make([]int64, in.keys.Len()*len(src.Cols))
	in.labeledSrc = in.labelSourceNulls(src)
	return in
}

// NewWith is New; dict is ignored. Integration aligns through the Source's
// own table.KeyIndex and needs no value dictionary — the function remains so
// existing callers compile.
func NewWith(src *table.Table, dict table.Interner) *Integrator { return New(src) }

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
// the Integrator's source-key index: project onto the Source's columns and
// keep only rows whose key values appear in the Source. Tables that do not
// carry the Source's key columns return nil — their rows can never align
// with a Source tuple, and Expand guarantees Gen-T's originating tables
// carry the key. It also returns nil when nothing of the Source's schema or
// key set remains.
func (in *Integrator) ProjectSelect(t *table.Table) *table.Table {
	p := t.Project(in.src.Cols...)
	if len(p.Cols) == 0 || len(p.Rows) == 0 || !p.HasCols(in.src.KeyCols()...) {
		return nil
	}
	return selectKeyed(in.keys, p)
}

// ProjectSelect is the one-shot form of Integrator.ProjectSelect for callers
// without an Integrator; it indexes the Source's keys on every call. Unlike
// the integrator path — Gen-T's ReclaimContext, which drops key-less
// tables — it keeps key-less tables (projected and deduplicated), because its
// full-disjunction consumers (ALITE-PS) can still combine them through other
// shared columns.
func ProjectSelect(src, t *table.Table) *table.Table {
	p := t.Project(src.Cols...)
	if len(p.Cols) == 0 || len(p.Rows) == 0 {
		return nil
	}
	if !p.HasCols(src.KeyCols()...) {
		p.Key = nil
		return p.DropDuplicates()
	}
	return selectKeyed(table.NewKeyIndex(src), p)
}

// selectKeyed keeps the rows of an already-projected table (carrying the
// Source's key columns) whose key values appear in the Source.
func selectKeyed(keys *table.KeyIndex, p *table.Table) *table.Table {
	p.Key = nil
	keyIdx, _ := keys.ColsIn(p)
	sel := table.New(p.Name, p.Cols...)
	for _, r := range p.Rows {
		if _, ok := keys.Lookup(r, keyIdx); ok {
			sel.Rows = append(sel.Rows, r)
		}
	}
	if len(sel.Rows) == 0 {
		return nil
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

	// LabelSourceNulls (line 5) and TakeMinimalForm (line 6).
	for i, t := range unioned {
		labeled := in.labelSourceNulls(t)
		unioned[i] = table.MinimalForm(labeled)
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

	// RemoveLabeledNulls (line 14) and schema padding (lines 15–16).
	out := in.removeLabels(acc)
	out = out.PadNullColumns(src.Cols)
	reordered, err := out.ReorderCols(src.Cols)
	if err != nil {
		panic(fmt.Sprintf("integrate: unreachable: %v", err))
	}
	reordered.Name = "reclaimed:" + src.Name
	reordered.Key = nil
	return reordered.DropDuplicates(), nil
}

// labelSourceNulls replaces, in t, every null that sits in a slot where the
// Source is also null (same key, same column) with that slot's unique label.
func (in *Integrator) labelSourceNulls(t *table.Table) *table.Table {
	src := in.src
	keyIdx, ok := in.keys.ColsIn(t)
	if !ok {
		return t.Clone()
	}
	srcColOf := make([]int, len(t.Cols))
	for i, name := range t.Cols {
		srcColOf[i] = src.ColIndex(name)
	}
	out := table.New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	for _, r := range t.Rows {
		id, ok := in.keys.Lookup(r, keyIdx)
		if !ok {
			out.Rows = append(out.Rows, r.Clone())
			continue
		}
		srow := src.Rows[in.keys.Rep(id)]
		nr := r.Clone()
		for i := range nr {
			if sc := srcColOf[i]; sc >= 0 && nr[i].IsNull() && srow[sc].IsNull() {
				nr[i] = in.label(id, sc)
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// removeLabels reverts this Integrator's labels back to nulls.
func (in *Integrator) removeLabels(t *table.Table) *table.Table {
	out := table.New(t.Name, t.Cols...)
	out.Key = append([]int(nil), t.Key...)
	for _, r := range t.Rows {
		nr := r.Clone()
		for i, v := range nr {
			if v.Kind == table.KindLabel && in.labelOf[v.ID] {
				nr[i] = table.Null
			}
		}
		out.Rows = append(out.Rows, nr)
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
