package discovery

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// alignedTuplesQualifyIDs is Algorithm 3's row check (lines 11–14) as
// discovery ran it after the schema match: keep only rows of the candidate
// whose matched-column values appear in the Source, and verify that within
// those rows at least one matched column still overlaps the Source column
// above τ. The candidate's interned form it is row-aligned with the
// (renamed) candidate, so membership checks read precomputed IDs: a cell is
// found in the Source column's sorted distinct ID set by binary search, and
// the aligned values of a column are marked by their position in that set.
// It is the oracle assemble's one condition must reproduce.
func alignedTuplesQualifyIDs(it, q *table.Interned, src *table.Table, matched map[string]int, tau float64) bool {
	type mc struct {
		tCol int
		set  []uint32 // the Source column's sorted distinct IDs
		hit  []bool   // hit[i]: set[i] occurs in an aligned row
	}
	mcs := make([]mc, 0, len(matched))
	for sName, tCol := range matched {
		set := q.ColumnIDs(src.ColIndex(sName))
		mcs = append(mcs, mc{tCol, set, make([]bool, len(set))})
	}
	// pos[i] is row ri's position in mcs[i].set, -1 when absent or null.
	pos := make([]int, len(mcs))
	for ri := 0; ri < len(it.Table.Rows); ri++ {
		aligned := false
		for i, m := range mcs {
			pos[i] = -1
			if id := it.Cols[m.tCol][ri]; id != table.NullID {
				if p, ok := slices.BinarySearch(m.set, id); ok {
					pos[i], aligned = p, true
				}
			}
		}
		if !aligned {
			continue
		}
		for i, p := range pos {
			if p >= 0 {
				mcs[i].hit[p] = true
			}
		}
	}
	for _, m := range mcs {
		n := 0
		for _, h := range m.hit {
			if h {
				n++
			}
		}
		if len(m.set) > 0 && float64(n)/float64(len(m.set)) >= tau {
			return true
		}
	}
	return false
}

// randomSetSimLake builds a Source of two to four columns, one of them
// sometimes all null, and a lake of tables over random column counts whose
// cells come from the Source's values, a few values of their own and nulls.
func randomSetSimLake(rng *rand.Rand) (*table.Table, *lake.Lake) {
	nCols := 2 + rng.Intn(3)
	cols := make([]string, nCols)
	for c := range cols {
		cols[c] = fmt.Sprintf("s%d", c)
	}
	src := table.New("S", cols...)
	src.Key = []int{nCols - 1}
	empty := -1
	if rng.Intn(2) == 0 {
		empty = rng.Intn(nCols - 1) // never the key
	}
	for r, n := 0, 2+rng.Intn(6); r < n; r++ {
		row := make(table.Row, nCols)
		for c := range row {
			switch {
			case c == empty:
			case c < nCols-1 && rng.Intn(4) == 0:
			default:
				row[c] = table.S(fmt.Sprintf("v%d", rng.Intn(8)))
			}
		}
		src.Rows = append(src.Rows, row)
	}
	l := lake.New()
	for i, n := 0, 3+rng.Intn(6); i < n; i++ {
		t := table.New(fmt.Sprintf("t%d", i))
		for c, m := 0, 1+rng.Intn(3); c < m; c++ {
			t.Cols = append(t.Cols, fmt.Sprintf("c%d", c))
		}
		for r, m := 0, 1+rng.Intn(6); r < m; r++ {
			row := make(table.Row, len(t.Cols))
			for c := range row {
				switch k := rng.Intn(6); {
				case k == 0:
				case k < 3:
					row[c] = table.S(fmt.Sprintf("w%d", rng.Intn(4)))
				default:
					row[c] = table.S(fmt.Sprintf("v%d", rng.Intn(8)))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		laketest.Add(l, t)
	}
	return src, l
}

// TestAssembleMatchesRowCheck holds assemble's verdict on every lake table
// to the schema match followed by the row check, at τ from 0 to 1 and over
// Sources with an all-null column, the one case in which the check drops a
// matched table.
func TestAssembleMatchesRowCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kept, dropped, checkDropped := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		src, l := randomSetSimLake(rng)
		snap := l.Snapshot()
		ix := index.BuildInverted(snap)
		for _, tau := range []float64{0, 0.05, 0.2, 1} {
			sets := newIDSets(snap, ix, src, tau)
			for _, name := range snap.Names() {
				_, matched := renameToSourceIDs(snap.Get(name), snap.Interned(name), sets.q, src, tau)
				want := len(matched) > 0 && alignedTuplesQualifyIDs(snap.Interned(name), sets.q, src, matched, tau)
				if len(matched) > 0 && !want {
					checkDropped++
				}
				if _, got := sets.assemble(name); got != want {
					t.Fatalf("trial %d, τ=%v, table %s: assemble keeps it %v, the row check %v\nsource:\n%s\ntable:\n%s",
						trial, tau, name, got, want, src, snap.Get(name))
				} else if got {
					kept++
				} else {
					dropped++
				}
			}
		}
	}
	if kept == 0 || dropped == 0 || checkDropped == 0 {
		t.Fatalf("corpus too narrow: %d kept, %d dropped, %d by the row check", kept, dropped, checkDropped)
	}
}
