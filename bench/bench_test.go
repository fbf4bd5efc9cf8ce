package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"gent/internal/table"
)

func tinyOptions(t *testing.T, seed int64, trace bool) options {
	t.Helper()
	return options{inputs: inputs{seed: seed, scale: tinyScale},
		passes: 1, setups: 1, check: true, trace: trace, workdir: t.TempDir()}
}

// TestSmoke runs every workload end to end at test scale, untraced and
// traced: the harness keeps compiling against the layers it calls, every
// oracle passes, and both runs emit exactly their catalog's metrics.
func TestSmoke(t *testing.T) {
	for _, proto := range workloads() {
		name := proto.name()
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep, err := runWorkload(context.Background(), newWorkload(name), tinyOptions(t, 11, trace))
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d failed: %v", trace, rep.Failed, rep.Attempted, rep.Failures)
				}
				defs := endToEndCatalog
				if trace {
					defs = perLayerCatalog
				}
				for _, d := range defs {
					m, ok := rep.get(d.Name)
					if !ok {
						t.Errorf("trace=%v: metric %s not emitted", trace, d.Name)
					} else if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(rep.TraceFile); err != nil {
						t.Errorf("span file: %v", err)
					}
					if m, _ := rep.get("trace.ops"); m.Value == 0 {
						t.Error("traced run replayed no operations")
					}
				}
				var line struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(contractLine(rep)), &line); err != nil {
					t.Fatalf("contract line: %v", err)
				}
				if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
					t.Errorf("contract line: correct=%v attempted=%d metrics=%d (want %d)",
						line.Correct, line.Attempted, len(line.Metrics), len(defs))
				}
			}
		})
	}
}

// TestSameSeedSameRun: the operation list and every output are functions of
// the seeds alone.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range []string{"tptr_bigsrc", "gentd_churn"} {
		var digests []string
		var quality [][3]float64
		for i := 0; i < 2; i++ {
			rep, err := runWorkload(context.Background(), newWorkload(name), tinyOptions(t, 5, false))
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, rep.Digest)
			var q [3]float64
			for j, m := range []string{"eis_mean", "recall_mean", "precision_mean"} {
				v, _ := rep.get(m)
				q[j] = v.Value
			}
			quality = append(quality, q)
		}
		if digests[0] != digests[1] || quality[0] != quality[1] {
			t.Errorf("%s: two runs of one seed differ: digests %v, quality %v", name, digests, quality)
		}
	}

	// The traced run's counts are functions of the inputs too.
	var counts [][]float64
	for i := 0; i < 2; i++ {
		rep, err := runWorkload(context.Background(), newWorkload("wide_candidates"), tinyOptions(t, 5, true))
		if err != nil {
			t.Fatal(err)
		}
		var c []float64
		for _, m := range []string{"discovery.candidates", "matrix.scored", "matrix.pruned", "matrix.rounds",
			"integrate.tables_in", "integrate.rows_out", "table.dict_values"} {
			v, _ := rep.get(m)
			c = append(c, v.Value)
		}
		counts = append(counts, c)
	}
	if !reflect.DeepEqual(counts[0], counts[1]) || counts[0][0] == 0 {
		t.Errorf("two traced runs of one seed count differently: %v", counts)
	}

	// The op order is the seed's; the churn rotation too.
	a, b, c := &churn{}, &churn{}, &churn{}
	dir := t.TempDir()
	for i, w := range []*churn{a, b, c} {
		seed := int64(5)
		if i == 2 {
			seed = 6
		}
		if err := w.generate(inputs{seed: seed, scale: tinyScale}, dir); err != nil {
			t.Fatal(err)
		}
	}
	names := func(w *churn) []string {
		out := []string{}
		for _, s := range w.srcs {
			out = append(out, s.Name)
		}
		return append(append(out, w.in0...), w.out0...)
	}
	if !reflect.DeepEqual(names(a), names(b)) {
		t.Error("same seed, different operation list")
	}
	if reflect.DeepEqual(names(a), names(c)) {
		t.Error("different seeds, same operation list")
	}
}

func TestChurnRotationKeepsLakeSize(t *testing.T) {
	w := &churn{batch: 2, in: []string{"a", "b", "c", "d", "e"}, out: []string{"x", "y", "z"},
		tables: map[string]*table.Table{}}
	for i := 0; i < 10; i++ {
		puts, drops := w.rotate()
		if len(puts) != 2 || len(drops) != 2 || len(w.in) != 5 || len(w.out) != 3 {
			t.Fatalf("cycle %d: %d puts, %d drops, in=%d out=%d", i, len(puts), len(drops), len(w.in), len(w.out))
		}
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, w.in...), w.out...) {
		if seen[n] {
			t.Fatalf("%s is both in and out of the lake", n)
		}
		seen[n] = true
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "x", "--seed", "3", "--seconds", "10", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-json"})
	if !reflect.DeepEqual(got, []string{"-trace", "-json"}) {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the driver's contract file and the
// program's own metric catalog from drifting apart.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []def `json:"end_to_end"`
		PerLayer   []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads, program has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name() || f.Workloads[i].Why != workloadWhy[w.name()] {
			t.Errorf("workload %d: %+v", i, f.Workloads[i])
		}
	}
	same := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, catalog has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: %+v, catalog %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s[%d] %s: bound %v, catalog %v", kind, i, g.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s[%d] %s: per-layer metrics carry no bound", kind, i, g.Name)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEndCatalog, true)
	same("per_layer", f.PerLayer, perLayerCatalog, false)
}

func TestRotation(t *testing.T) {
	srcs := make([]*table.Table, 26)
	for i := range srcs {
		srcs[i] = table.New("q")
	}
	a, b, c := newRotation(srcs, 11), newRotation(srcs, 11), newRotation(srcs, 12)
	starts := map[int]bool{}
	for sweep := 0; sweep < 26; sweep++ {
		order := a.next()
		if !reflect.DeepEqual(order, b.next()) {
			t.Fatal("same seed, different sweep order")
		}
		seen := map[int]bool{}
		for i, idx := range order {
			seen[idx] = true
			// A rotation: every operation keeps its predecessor.
			if i > 0 && idx != (order[i-1]+1)%26 {
				t.Fatalf("sweep %d is not a rotation: %v", sweep, order)
			}
		}
		if len(seen) != 26 {
			t.Fatalf("sweep %d misses sources: %v", sweep, order)
		}
		starts[order[0]] = true
	}
	if len(starts) != 26 {
		t.Errorf("26 sweeps started at only %d different sources", len(starts))
	}
	if reflect.DeepEqual(newRotation(srcs, 11).next(), c.next()) {
		t.Error("different seeds, same first sweep")
	}
	// Fewer sources than the stride's factors still rotate through all of them.
	small := newRotation(srcs[:7], 3)
	starts = map[int]bool{}
	for i := 0; i < 7; i++ {
		starts[small.next()[0]] = true
	}
	if len(starts) != 7 {
		t.Errorf("7 sources: sweeps started at only %d of them", len(starts))
	}
}
