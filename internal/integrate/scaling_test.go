package integrate

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gent/internal/table"
)

// scalingCorpus builds a Source of n keys over six value columns (one cell
// in five null) and four originating tables holding about 2.4 rows per key
// between them. Tables 0 and 1 share a schema, so they inner-union; each
// table carries a row of a key with probability 0.6, and each cell is the
// Source's value, a null (one in five) or a contradiction (one in eight).
func scalingCorpus(n int) (*table.Table, []*table.Table) {
	rng := rand.New(rand.NewSource(int64(n)))
	cols := []string{"k", "c1", "c2", "c3", "c4", "c5", "c6"}
	src := table.New("S", cols...)
	src.Key = []int{0}
	for r := 0; r < n; r++ {
		row := table.Row{table.S(fmt.Sprintf("key%d", r))}
		for c := 1; c < len(cols); c++ {
			if rng.Intn(5) == 0 {
				row = append(row, table.Null)
			} else {
				row = append(row, table.S(fmt.Sprintf("v%d_%d", r, c)))
			}
		}
		src.Rows = append(src.Rows, row)
	}
	schemas := [][]string{
		{"k", "c1", "c2", "c3"},
		{"c3", "k", "c2", "c1"},
		{"k", "c3", "c4", "c5"},
		{"k", "c1", "c5", "c6"},
	}
	origs := make([]*table.Table, len(schemas))
	for i, names := range schemas {
		o := table.New(fmt.Sprintf("O%d", i), names...)
		for r, srow := range src.Rows {
			if rng.Intn(5) >= 3 {
				continue
			}
			row := make(table.Row, len(names))
			for j, name := range names {
				v := srow[src.ColIndex(name)]
				switch {
				case name == "k":
				case rng.Intn(5) == 0:
					v = table.Null
				case rng.Intn(8) == 0:
					v = table.S(fmt.Sprintf("wrong%d_%d", r, rng.Intn(2)))
				}
				row[j] = v
			}
			o.Rows = append(o.Rows, row)
		}
		origs[i] = o
	}
	return src, origs
}

// BenchmarkReclaimScaling measures one integration (a fresh Integrator and
// ReclaimContext) over Sources of 100 to 800 keys at a fixed number of rows
// per key. ns/key stays flat when integration is linear in the Source.
func BenchmarkReclaimScaling(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		src, origs := scalingCorpus(n)
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(src).ReclaimContext(context.Background(), origs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}

// TestFoldAllocatesOncePerRow integrates 8 originating tables over disjoint
// key ranges, each lacking a different one of the Source's 8 value columns
// (so no two inner-union), and the same rows as one table with a null where
// a row's table lacked the column. Each row is written once and each fold
// step reduces only the key groups its table touches, so the 8-table run
// allocates about what the one-table run does, not a copy of the whole
// accumulator per step.
func TestFoldAllocatesOncePerRow(t *testing.T) {
	const parts, perPart = 8, 100
	cols := []string{"k", "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	src := table.New("S", cols...)
	src.Key = []int{0}
	whole := table.New("whole", cols...)
	var origs []*table.Table
	for p := 0; p < parts; p++ {
		lacks := cols[1+p]
		o := table.New(fmt.Sprintf("O%d", p))
		for _, c := range cols {
			if c != lacks {
				o.Cols = append(o.Cols, c)
			}
		}
		for r := p * perPart; r < (p+1)*perPart; r++ {
			key := table.S(fmt.Sprintf("key%d", r))
			srow, wrow, orow := table.Row{key}, table.Row{key}, table.Row{key}
			for _, c := range cols[1:] {
				v := table.S(fmt.Sprintf("v%d_%s", r, c))
				srow = append(srow, v)
				if c == lacks {
					wrow = append(wrow, table.Null)
					continue
				}
				wrow, orow = append(wrow, v), append(orow, v)
			}
			src.Rows, whole.Rows, o.Rows = append(src.Rows, srow), append(whole.Rows, wrow), append(o.Rows, orow)
		}
		origs = append(origs, o)
	}
	allocated := func(origs []*table.Table) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			reclaim(t, New(src), origs)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := allocated([]*table.Table{whole}), allocated(origs)
	if ratio := float64(eight) / float64(one); ratio >= 1.5 {
		t.Errorf("8 tables allocate %d B, one table %d B: ratio %.2f, want under 1.5", eight, one, ratio)
	} else {
		t.Logf("8 tables allocate %d B, one table %d B: ratio %.2f", eight, one, ratio)
	}
}
