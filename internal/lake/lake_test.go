package lake

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gent/internal/table"
)

func smallTable(name string, n int) *table.Table {
	t := table.New(name, "id", "val")
	for i := 0; i < n; i++ {
		t.AddRow(table.N(float64(i)), table.S(name+"-v"))
	}
	return t
}

// add and drop are this package's one-table-per-epoch fixture helpers
// (laketest imports lake, so it cannot serve the package's own tests).
func add(l *Lake, t *table.Table) {
	if _, err := l.Apply(context.Background(), Put(t)); err != nil {
		panic(err)
	}
}

func drop(l *Lake, name string) {
	if _, err := l.Apply(context.Background(), Drop(name)); err != nil {
		panic(err)
	}
}

func TestAddGetRemove(t *testing.T) {
	l := New()
	add(l, smallTable("a", 2))
	add(l, smallTable("b", 3))
	if s := l.Snapshot(); s.Len() != 2 || s.Get("a") == nil || s.Get("c") != nil {
		t.Fatal("basic catalog operations wrong")
	}
	// Replacement keeps a single entry.
	add(l, smallTable("a", 5))
	if s := l.Snapshot(); s.Len() != 2 || s.Get("a").NumRows() != 5 {
		t.Error("replacement failed")
	}
	drop(l, "a")
	if s := l.Snapshot(); s.Len() != 1 || s.Get("a") != nil {
		t.Error("remove failed")
	}
	e := l.Epoch()
	drop(l, "missing") // a true no-op
	if l.Epoch() != e {
		t.Error("dropping an absent name moved the epoch")
	}
}

func TestTablesDeterministicOrder(t *testing.T) {
	l := New()
	for _, n := range []string{"z", "a", "m"} {
		add(l, smallTable(n, 1))
	}
	got := l.Snapshot().Names()
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want insertion order %v", got, want)
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	l := New()
	add(l, smallTable("t1", 2))
	add(l, smallTable("t2", 4))
	if err := l.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, errs := LoadDir(dir)
	if len(errs) != 0 {
		t.Fatalf("unexpected load errors: %v", errs)
	}
	if s := got.Snapshot(); s.Len() != 2 || s.Get("t1").NumRows() != 2 || s.Get("t2").NumRows() != 4 {
		t.Error("round trip lost tables")
	}
}

func TestLoadDirSkipsBrokenFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.csv"), []byte(""), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := table.SaveCSVFile(filepath.Join(dir, "good.csv"), smallTable("good", 1)); err != nil {
		t.Fatal(err)
	}
	l, errs := LoadDir(dir)
	if s := l.Snapshot(); s.Len() != 1 || s.Get("good") == nil {
		t.Error("good table lost")
	}
	if len(errs) != 1 {
		t.Errorf("expected 1 error for broken file, got %v", errs)
	}
}

func TestComputeStats(t *testing.T) {
	l := New()
	add(l, smallTable("a", 2))
	add(l, smallTable("b", 4))
	s := l.ComputeStats()
	if s.Tables != 2 || s.Cols != 4 || s.AvgRows != 3 || s.SizeBytes <= 0 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	if empty := New().ComputeStats(); empty.AvgRows != 0 {
		t.Error("empty lake stats must not divide by zero")
	}
}

// TestComputeStatsConcurrent: stats come off one pinned snapshot, so under
// concurrent Put/Drop of 2-column tables every result is self-consistent —
// Cols is exactly twice Tables. Reading the table count and the tables from
// two snapshots mixes epochs and breaks the identity; readers poll for as
// long as the writers run, so the race gets every chance to show.
func TestComputeStatsConcurrent(t *testing.T) {
	l := New()
	const (
		writers = 2
		readers = 2
		rounds  = 2000
	)
	var wg, rg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-%d", w, i%5)
				add(l, smallTable(name, 1))
				if i%2 == 1 {
					drop(l, name)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !done.Load() {
				if s := l.ComputeStats(); s.Cols != 2*s.Tables {
					t.Errorf("stats mix epochs: %d tables, %d cols", s.Tables, s.Cols)
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
}
