package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// randomLake builds a lake big enough that parallel construction exercises
// every worker.
func randomLake(tables int, seed int64) *lake.Lake {
	r := rand.New(rand.NewSource(seed))
	l := lake.New()
	for i := 0; i < tables; i++ {
		tb := table.New(fmt.Sprintf("t%03d", i), "a", "b", "c")
		for j := 0; j < 5+r.Intn(30); j++ {
			tb.AddRow(
				table.S(fmt.Sprintf("v%d", r.Intn(200))),
				table.N(float64(r.Intn(50))),
				table.S(fmt.Sprintf("w%d-%d", i%7, r.Intn(40))),
			)
		}
		laketest.Add(l, tb)
	}
	return l
}

func TestParallelInvertedMatchesSequential(t *testing.T) {
	snap := randomLake(60, 3).Snapshot()
	seq := buildInvertedSharded(snap, 4, 1)
	for _, workers := range []int{2, 4, 8} {
		par := buildInvertedSharded(snap, 4, workers)
		if !reflect.DeepEqual(seq.base, par.base) {
			t.Fatalf("postings differ at %d workers", workers)
		}
		if !reflect.DeepEqual(seq.colSizes, par.colSizes) {
			t.Fatalf("column sizes differ at %d workers", workers)
		}
	}
}

func TestParallelMinHashMatchesSequential(t *testing.T) {
	snap := randomLake(60, 5).Snapshot()
	seq := buildMinHashLSH(snap, 1)
	for _, workers := range []int{2, 4, 8} {
		par := buildMinHashLSH(snap, workers)
		if !reflect.DeepEqual(seq.base, par.base) {
			t.Fatalf("signatures differ at %d workers", workers)
		}
		if !reflect.DeepEqual(seq.buckets, par.buckets) {
			t.Fatalf("buckets differ at %d workers", workers)
		}
	}
}

func TestIndexSetRoundTrip(t *testing.T) {
	l := randomLake(20, 9)
	s := BuildIndexSet(l.Snapshot())
	if s.Inverted == nil || s.LSH == nil {
		t.Fatal("BuildIndexSet must build both substrates")
	}
	dir := filepath.Join(t.TempDir(), "indexes")
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatPostingsView(s.Inverted), flatPostingsView(got.Inverted)) {
		t.Error("inverted postings did not round-trip")
	}
	if !reflect.DeepEqual(s.LSH.base, got.LSH.base) {
		t.Error("minhash signatures did not round-trip")
	}
}

func TestIndexSetLoadMissingDir(t *testing.T) {
	if _, err := LoadIndexSetDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("loading an empty directory must fail")
	}
}
