package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

// The driver judges noise with Python's statistics.quantiles(values, n=4);
// these are that function's outputs for the same inputs.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles → [2.75, 5.5, 8.25]
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	ys := []float64{10, 12, 11, 30, 9} // quantiles → [9.5, 11.0, 21.0]
	if got, want := quartileSpread(ys), (21.0-9.5)/11.0; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestOpsPerSecondUsesMedianPass(t *testing.T) {
	// One pass caught a stall; the median pass did not.
	if got := opsPerSecond(26, []float64{2.0, 2.1, 9.0}); !near(got, 26/2.1) {
		t.Errorf("opsPerSecond = %v, want %v", got, 26/2.1)
	}
	if got := opsPerSecond(26, nil); got != 0 {
		t.Errorf("opsPerSecond without passes = %v, want 0", got)
	}
}

func TestRecorderPoolsEverySample(t *testing.T) {
	rec := newRecorder()
	rec.cpu = func() hostCPU { return hostCPU{} } // a host that never steals
	// Three passes over a two-operation list; the second ran in a slow spell
	// and stays in the pool like every other sample.
	for _, pass := range [][2]time.Duration{{10, 100}, {50, 500}, {12, 104}} {
		rec.beginPass()
		rec.observe(opPrimary, pass[0]*time.Millisecond)
		rec.observe(opPrimary, pass[1]*time.Millisecond)
		rec.endSection()
		rec.observe(opAux, time.Second) // after the section: not throughput
		rec.commitPass()
	}
	op := rec.lat[opPrimary]
	if len(op) != 6 || !near(percentile(op, 0.5), 75) || !near(percentile(op, 1), 500) {
		t.Fatalf("pooled latencies = %v", op)
	}
	if rec.perPass != 2 || len(rec.walls) != 3 || len(rec.granted) != 3 {
		t.Fatalf("pass accounting: perPass=%d walls=%v granted=%v", rec.perPass, rec.walls, rec.granted)
	}
	if len(rec.lat[opAux]) != 3 || rec.timed != 9 || rec.attempted != 9 {
		t.Fatalf("aux=%v timed=%d attempted=%d", rec.lat[opAux], rec.timed, rec.attempted)
	}
	// A batch of 26 that took 2.6 s is one sample of 100 ms and 26 operations.
	rec.beginPass()
	rec.observeN(opAux, 2600*time.Millisecond, 26)
	rec.commitPass()
	if aux := rec.lat[opAux]; len(aux) != 4 || !near(aux[3], 100) || rec.timed != 35 || rec.perPass != 26 {
		t.Fatalf("aux=%v timed=%d perPass=%d", aux, rec.timed, rec.perPass)
	}
}

// A host that grants 80 % of the CPU time asked for: latencies and the pass's
// section count the granted 80 %, the wall-clock pool keeps what was measured.
func TestRecorderCountsGrantedTime(t *testing.T) {
	rec := newRecorder()
	var now hostCPU
	rec.cpu = func() hostCPU {
		now.busy += 80
		now.steal += 20
		return now
	}
	rec.beginPass()
	rec.observe(opPrimary, 100*time.Millisecond)
	rec.observe(opPrimary, 200*time.Millisecond)
	rec.commitPass()
	if got := rec.lat[opPrimary]; len(got) != 2 || !near(got[0], 80) || !near(got[1], 160) {
		t.Errorf("granted latencies = %v, want [80 160]", got)
	}
	if got := rec.raw[opPrimary]; len(got) != 2 || !near(got[0], 100) || !near(got[1], 200) {
		t.Errorf("wall-clock latencies = %v, want [100 200]", got)
	}
	// An operation far shorter than the host's slices stays on the wall clock.
	rec.beginPass()
	rec.observe(opAux, 300*time.Microsecond)
	rec.commitPass()
	if got := rec.lat[opAux]; len(got) != 1 || !near(got[0], 0.3) {
		t.Errorf("short operation = %v, want [0.3]", got)
	}
	if len(rec.granted) != 2 || !near(rec.granted[0], 0.8) || rec.walls[0] <= 0 {
		t.Errorf("pass: granted=%v walls=%v", rec.granted, rec.walls)
	}
}

func TestGrantedShare(t *testing.T) {
	stat := "cpu  2089827 12 291945 2626539 10860 5 52496 598902 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	got := parseHostCPU(stat)
	if !near(got.busy, 2089827+12+291945+5+52496) || !near(got.steal, 598902) {
		t.Fatalf("parseHostCPU = %+v", got)
	}
	if parseHostCPU("cpu 1 2 3") != (hostCPU{}) {
		t.Error("a short line must read as no data")
	}
	if g := grantedShare(hostCPU{100, 10}, hostCPU{190, 20}); !near(g, 0.9) {
		t.Errorf("grantedShare = %v, want 0.9", g)
	}
	if g := grantedShare(hostCPU{}, hostCPU{}); g != 1 {
		t.Errorf("no data must mean no correction, got %v", g)
	}
}

func TestRecorderWarmPassRecordsOutputsNotLatencies(t *testing.T) {
	rec := newRecorder()
	rec.warm = true
	rec.beginPass()
	rec.observe(opPrimary, time.Second)
	rec.output("q1", quality{eis: 1, digest: 7})
	rec.commitPass()
	rec.warm, rec.refs = false, len(rec.order)
	if rec.timed != 0 || len(rec.walls) != 0 || rec.attempted != 1 {
		t.Fatal("warm-up latencies were kept")
	}
	rec.output("q1", quality{eis: 1, digest: 7})
	if rec.failed != 0 {
		t.Fatal("an identical output counted as a failure")
	}
	rec.output("q1", quality{eis: 1, digest: 8})
	if rec.failed != 1 {
		t.Fatal("a changed output was not counted")
	}
}
