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
	"slices"

	"gent/internal/table"
)

// Integrator reclaims one Source Table from sets of originating tables. It
// is stateful for label identities, so one Integrator must be used for one
// Source, by one goroutine at a time.
//
// Every source-key decision — ProjectSelect membership, labeling slots, the
// fold's key groups and guard scoring — goes through one table.KeyIndex over
// the Source: a source-local key space, so integration needs no value
// dictionary. ReclaimContext writes each kept row once, at the Source's width
// and column order, and takes it to minimal form and folds it in one Source
// key group at a time.
type Integrator struct {
	src  *table.Table
	keys *table.KeyIndex
	// labeled[id] is the Source's tuple of key id with its nulls replaced by
	// labels, so EIS evaluation rewards preserving a correct null and
	// penalizes filling it; nil until the guards first score group id
	// (labeledRow).
	labeled []table.Row
	// isKey flags the Source's key columns, which the guards do not score.
	isKey []bool
	// labels[id*len(src.Cols)+c] is the label of the (source key id, source
	// column c) slot; 0 until first use. Labels are numbered 1..nextID.
	labels []int64
	nextID int64
	// counts is β's scratch.
	counts []int
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
	in := &Integrator{src: src, keys: keys}
	in.labels = make([]int64, keys.Len()*len(src.Cols))
	in.isKey = make([]bool, len(src.Cols))
	for _, k := range src.Key {
		in.isKey[k] = true
	}
	in.labeled = make([]table.Row, keys.Len())
	return in
}

// labeledRow returns labeled[id], building it on first use: only the groups
// that reach the guarded reduce read it.
func (in *Integrator) labeledRow(id int) table.Row {
	if in.labeled[id] == nil {
		in.labeled[id] = in.labelNulls(id, slices.Clone(in.src.Rows[in.keys.Rep(id)]))
	}
	return in.labeled[id]
}

// label returns the stable label for a (source key id, source column) slot:
// the same slot gets the same label in every table, so labeled tuples still
// deduplicate, subsume and complement consistently.
func (in *Integrator) label(id, col int) table.Value {
	slot := &in.labels[id*len(in.src.Cols)+col]
	if *slot == 0 {
		in.nextID++
		*slot = in.nextID
	}
	return table.Label(*slot)
}

// labelNulls replaces, in r (a row at the Source's width and column order),
// every null in a slot where the Source's tuple of key id is also null with
// that slot's label, and returns r.
func (in *Integrator) labelNulls(id int, r table.Row) table.Row {
	srow := in.src.Rows[in.keys.Rep(id)]
	for c, v := range r {
		if v.IsNull() && srow[c].IsNull() {
			r[c] = in.label(id, c)
		}
	}
	return r
}

// ProjectSelect applies Algorithm 2 line 3 to one originating table using
// the Integrator's source-key index: keep only rows whose key values appear
// in the Source and project them onto the Source's columns. Tables that do
// not carry the Source's key columns return nil — their rows can never align
// with a Source tuple, and Expand guarantees Gen-T's originating tables
// carry the key. It also returns nil when no row's key is the Source's.
//
// Rows are projected onto the Source's columns that t has, in the Source's
// order as Table.Project does; the result has no key.
func (in *Integrator) ProjectSelect(t *table.Table) *table.Table {
	keyIdx, ok := in.keys.ColsIn(t)
	if !ok {
		return nil
	}
	kept := make([]int32, 0, len(t.Rows))
	for i, r := range t.Rows {
		if _, ok := in.keys.Lookup(r, keyIdx); ok {
			kept = append(kept, int32(i))
		}
	}
	if len(kept) == 0 {
		return nil
	}
	idx := make([]int, 0, len(in.src.Cols))
	names := make([]string, 0, len(in.src.Cols))
	for _, c := range in.src.Cols {
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
	return (&Integrator{src: src, keys: table.NewKeyIndex(src)}).ProjectSelect(t)
}

// widen is ReclaimContext's ProjectSelect: it keeps the rows of t whose key
// tuple at keyIdx is a Source key, as ProjectSelect does, but writes each
// once, into one slab, at the Source's width and column order, with its
// correct nulls labeled (LabelSourceNulls, line 5) in the columns t has and
// a plain null in every column t lacks. ids[i] is rows[i]'s key id, and size
// counts each kept row by key id. sig tells apart the sets of Source columns
// tables have, the grouping InnerUnion (line 4) goes by.
func (in *Integrator) widen(t *table.Table, keyIdx []int, size []int) (rows []table.Row, ids []int32, sig string) {
	w := len(in.src.Cols)
	at, has := make([]int, w), make([]byte, w) // t's column of each Source column, -1 if none
	for c, name := range in.src.Cols {
		if at[c] = t.ColIndex(name); at[c] >= 0 {
			has[c] = 1
		}
	}
	ids, n := make([]int32, len(t.Rows)), 0
	for i, r := range t.Rows {
		id, ok := in.keys.Lookup(r, keyIdx) // -1 when !ok
		if ids[i] = int32(id); ok {
			size[id]++
			n++
		}
	}
	cells, rows := make([]table.Value, n*w), make([]table.Row, 0, n)
	for i, r := range t.Rows {
		id := int(ids[i])
		if id < 0 {
			continue
		}
		k, srow := len(rows), in.src.Rows[in.keys.Rep(id)]
		ids[k] = int32(id) // k <= i: the kept rows' ids close up in place
		nr := cells[k*w : (k+1)*w : (k+1)*w]
		for c, j := range at {
			switch {
			case j < 0:
			case r[j].IsNull() && srow[c].IsNull():
				nr[c] = in.label(id, c)
			default:
				nr[c] = r[j]
			}
		}
		rows = append(rows, nr)
	}
	return rows, ids[:n], string(has)
}

// ReclaimContext integrates the originating tables into a possible reclaimed
// Source Table with exactly the Source's schema. Cancellation is checked
// before each originating table's ProjectSelect and before each step of the
// outer-union fold (the integration loop's per-table guarded merge is the
// expensive unit of work), returning ctx.Err() with a nil table.
//
// Minimal form (line 6) and the fold (lines 7–13) run on Source key groups.
// Each step appends the next table's rows to the groups of their keys, takes
// each touched group's new rows to minimal form (minimalForm), labels their
// correct nulls in the columns the table lacks, and runs the Figure 5 guards
// (reduce) on the touched groups that held rows before. A group new to the
// step joins the output order where its first surviving row sits in the
// table. This is Algorithm 2 as written — minimal form of each whole table,
// then a fold that outer-unions the whole accumulator, relabels the nulls ⊎
// introduces and runs each guard over every group — row for row and in
// order:
//
//   - Minimal form by key group is minimal form of the table. Rows
//     complement or subsume only when they are Equal on every cell both
//     hold, and Value.Equal is Value.Key equality, so rows of different
//     key groups never interact, and equal rows share a group. Nor does the
//     split change the order: every row keeps its place, a κ merge is
//     written into the earlier row, and the survivors stay in table order,
//     as the whole-table pass leaves them.
//   - One κ pass and then one β pass reach minimal form's fixpoint, the
//     precondition of the representative-operators theorem (Theorem 8: no
//     duplicate, complementing or subsumed pair). κ leaves no complementing
//     pair, β only removes rows, which creates none, and β drops every row
//     that a row surviving it subsumes.
//   - Every row joins the fold at the Source's width with all its correct
//     nulls labeled. A column c that no table folded so far has holds, in
//     every row of key group id, the same cell: label (id, c) where the
//     Source's tuple is null, a null elsewhere (a κ merge of two such rows
//     holds it too). κ and β compare rows of one group, whose key cells
//     already share a non-null value, so a cell all rows hold alike changes
//     no Complements or Subsumes verdict; it adds the same to every row's
//     NonNullCount, and to every row's guard score and every merge's, so no
//     comparison moves; and it never tells two rows apart. Once a folded table has c, ⊎ pads the rows without it
//     with nulls that the relabeling turns into exactly these cells.
//     Minimal form sees a plain null in every column the table lacks, a
//     cell null in every row, which changes none of its verdicts.
//   - Rows of different key groups never interact in the fold: the guards
//     and the deduplications work within one group, a κ merge keeps the
//     earlier row's key cells, and rows equal under Row.Key share their
//     key's value classes, hence their group.
//   - A group the step does not touch holds what its last reduce left.
//     Reducing it again changes nothing: κ had no pair left that its guard
//     accepts and deduplication and β only dropped rows since, so κ merges
//     nothing and no two rows are equal; β's survivors are a subset of the
//     rows that were alive when each survivor was visited, none of which
//     subsumed it under the guard, so β drops nothing.
//   - A group the step creates holds rows of one table only, a subset of
//     its minimal form, so no two of them are equal, complement or subsume,
//     and labeling the columns the table lacks gives them all the same cell
//     there. Guarded κ merges nothing, deduplication and guarded β drop
//     nothing, so reduce is skipped on it — on every group of the first
//     table.
func (in *Integrator) ReclaimContext(ctx context.Context, origs []*table.Table) (*table.Table, error) {
	src := in.src

	// ProjectSelect (line 3) and InnerUnion (line 4): keep only Source
	// columns and rows whose key values appear in the Source, and
	// concatenate tables with the same Source columns. Gen-T's originating
	// tables carry the Source key (Expand guarantees it); key-less
	// leftovers, whose tuples could never align, are dropped here.
	var parts [][]table.Row
	var partIDs [][]int32 // each part row's key id
	part := make(map[string]int)
	size, total := make([]int, in.keys.Len()), 0 // each key's rows bound its group
	for _, t := range origs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		keyIdx, ok := in.keys.ColsIn(t)
		if !ok {
			continue
		}
		rows, ids, sig := in.widen(t, keyIdx, size)
		total += len(rows)
		switch p, ok := part[sig]; {
		case len(rows) == 0:
		case ok:
			parts[p], partIDs[p] = append(parts[p], rows...), append(partIDs[p], ids...)
		default:
			part[sig] = len(parts)
			parts, partIDs = append(parts, rows), append(partIDs, ids)
		}
	}
	if len(parts) == 0 {
		return table.New("reclaimed").PadNullColumns(src.Cols), nil
	}

	// TakeMinimalForm (line 6) and the integration loop (lines 7–13), one
	// key group at a time; see the doc comment. Groups never grow past their
	// key's rows, so they share one slab.
	groups, slab := make([][]table.Row, len(size)), make([]table.Row, total)
	for id, n := range size {
		groups[id], slab = slab[:0:n], slab[n:]
	}
	var order, hit []int32
	start := make([]int, len(size)) // 1 + where a touched group's new rows start; 0 between steps
	for step, rows := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ids := partIDs[step]
		hit = hit[:0]
		for i, id := range ids {
			if start[id] == 0 {
				start[id] = len(groups[id]) + 1
				hit = append(hit, id)
			}
			groups[id] = append(groups[id], rows[i])
		}
		for _, id := range hit {
			grp, s := groups[id], start[id]-1
			grp = grp[:s+len(in.minimalForm(grp[s:]))]
			for _, r := range grp[s:] {
				in.labelNulls(int(id), r)
			}
			if s > 0 {
				grp = in.reduce(in.labeledRow(int(id)), grp)
			}
			groups[id] = grp
		}
		// A group new to this step joins the output order where its first
		// surviving row sits in the table. Minimal form and labelNulls write
		// rows in place, so that survivor is one of rows itself.
		for i, r := range rows {
			if id := ids[i]; start[id] == 1 && &groups[id][0][0] == &r[0] {
				order = append(order, id)
			}
		}
		for _, id := range hit {
			start[id] = 0
		}
	}

	// RemoveLabeledNulls (line 14) in place, and deduplication: rows that
	// turn out equal share a group. Every row already has the Source's
	// columns (lines 15–16).
	out := table.New("reclaimed:"+src.Name, src.Cols...)
	out.Rows = make([]table.Row, 0, total)
	for _, id := range order {
		grp := groups[id]
		for _, r := range grp {
			for c, v := range r {
				if v.Kind == table.KindLabel && v.ID >= 1 && v.ID <= in.nextID {
					r[c] = table.Null
				}
			}
		}
		out.Rows = append(out.Rows, distinct(grp)...)
	}
	return out, nil
}
