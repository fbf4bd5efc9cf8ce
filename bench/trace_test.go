package main

import (
	"testing"
	"time"
)

func sp(name string, start, end, parent int) span {
	return span{Name: name, Start: time.Duration(start), End: time.Duration(end), Parent: parent}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		sp("op", 0, 100, -1),
		sp("discovery.setsim", 10, 30, 0),
		sp("discovery.expand", 30, 70, 0),
		sp("table.join", 40, 60, 2), // grandchild: inside expand, not subtracted from op again
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 20, 20, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// A batch's items run concurrently: the covered part of the parent is the
	// union of the child intervals, clipped to the parent.
	spans := []span{
		sp("core.batch", 0, 100, -1),
		sp("item", 10, 50, 0),
		sp("item", 30, 80, 0),  // overlaps the first by 20
		sp("item", 35, 45, 0),  // entirely inside the first
		sp("item", 90, 120, 0), // runs past the parent's end
	}
	got := selfTimes(spans)
	// union = [10,80] ∪ [90,100] = 80 → self 20
	if got[0] != 20 {
		t.Errorf("parent self = %d, want 20", got[0])
	}
	if got[1] != 40 || got[2] != 50 || got[3] != 10 || got[4] != 30 {
		t.Errorf("leaf self times = %v", got[1:])
	}
}

func TestTracerParentsAndOps(t *testing.T) {
	tr := newTracer()
	endOp := tr.beginOp("op")
	endA := tr.begin("discovery.setsim")
	endA()
	endB := tr.begin("integrate.reclaim")
	endB()
	endOp()
	endOp2 := tr.beginOp("op")
	endOp2()
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[3].Parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent)
	}
	if tr.spans[0].Op != 0 || tr.spans[2].Op != 0 || tr.spans[3].Op != 1 {
		t.Errorf("op ids = %d %d %d", tr.spans[0].Op, tr.spans[2].Op, tr.spans[3].Op)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if layerOf("discovery.expand") != "discovery" || layerOf("op") != "op" {
		t.Error("layerOf")
	}
}

func TestLayerSharesComeFromOpRootsOnly(t *testing.T) {
	spans := []span{
		sp("setup", 0, 1000, -1),
		sp("index.build", 0, 1000, 0), // under set-up: in index.build_ms, not in the shares
		sp("op", 1000, 1100, -1),
		sp("discovery.expand", 1000, 1060, 2),
		sp("integrate.reclaim", 1060, 1090, 2),
	}
	rec := newRecorder()
	ms := layerMetrics(spans, layerCounts{"ops": 1}, rec, 0.5)
	get := func(name string) float64 {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s missing", name)
		return 0
	}
	if !near(get("discovery.share"), 0.6) || !near(get("integrate.share"), 0.3) || get("index.share") != 0 {
		t.Errorf("shares: discovery %v integrate %v index %v", get("discovery.share"), get("integrate.share"), get("index.share"))
	}
	// Times count the granted half; shares are ratios and do not move.
	if !near(get("index.build_ms"), 500e-6) || !near(get("discovery.expand_ms"), 30e-6) {
		t.Errorf("granted times: build %v expand %v", get("index.build_ms"), get("discovery.expand_ms"))
	}
	if len(ms) != len(perLayerCatalog) {
		t.Errorf("%d metrics, catalog has %d", len(ms), len(perLayerCatalog))
	}
}
