package core

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

var semCityNames = []string{
	"london", "paris", "berlin", "madrid", "rome", "vienna", "prague",
	"warsaw", "lisbon", "dublin", "athens", "oslo", "stockholm", "helsinki",
	"budapest", "bucharest", "amsterdam", "brussels", "copenhagen", "zurich",
}

// semLake holds an exact-overlap table, a value-translated twin (zero exact
// overlap with the source), and noise.
func semLake() *lake.Lake {
	l := lake.New()
	exact := table.New("exact", "place")
	for _, c := range semCityNames[:12] {
		exact.AddRow(table.S(c))
	}
	laketest.Add(l, exact)
	tr := table.New("translated", "stadt")
	for _, c := range semCityNames {
		tr.AddRow(table.S("de·" + c))
	}
	laketest.Add(l, tr)
	noise := table.New("noise", "fruit")
	for _, f := range []string{"apple", "pear", "plum", "cherry"} {
		noise.AddRow(table.S(f))
	}
	laketest.Add(l, noise)
	return l
}

func semSource() *table.Table {
	src := table.New("Source", "city")
	src.Key = []int{0}
	for _, c := range semCityNames {
		src.AddRow(table.S(c))
	}
	return src
}

// TestSemanticResultAccounting: a hybrid run records per-channel counts in
// the Result, stamps them on the discovery progress event, and includes a
// discovery object in the JSON report — while a default (syntactic) run's
// report stays free of it.
func TestSemanticResultAccounting(t *testing.T) {
	l := semLake()
	src := semSource()
	cfg := DefaultConfig()
	cfg.Discovery.Strategy = discovery.StrategyHybrid
	var mu sync.Mutex
	var discoveryDone *ProgressEvent
	cfg.Observer = ObserverFunc(func(ev ProgressEvent) {
		if ev.Phase == PhaseDiscovery && ev.Kind == EventPhaseDone {
			mu.Lock()
			cp := ev
			discoveryDone = &cp
			mu.Unlock()
		}
	})
	res, err := ReclaimContext(context.Background(), l, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discovery.Strategy != discovery.StrategyHybrid ||
		res.Discovery.SyntacticCandidates == 0 || res.Discovery.SemanticCandidates == 0 {
		t.Fatalf("Result.Discovery = %+v", res.Discovery)
	}
	if discoveryDone == nil || discoveryDone.Strategy != "hybrid" ||
		discoveryDone.CandsSyntactic != res.Discovery.SyntacticCandidates ||
		discoveryDone.CandsSemantic != res.Discovery.SemanticCandidates {
		t.Fatalf("discovery progress event = %+v", discoveryDone)
	}
	js, err := res.JSON(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"strategy": "hybrid"`) || !strings.Contains(js, `"semantic_candidates"`) {
		t.Fatalf("hybrid report lacks the discovery object:\n%s", js)
	}

	// Default configuration: no discovery object — report shape unchanged.
	plain, err := ReclaimContext(context.Background(), l, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pjs, err := plain.JSON(src)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pjs, `"discovery"`) {
		t.Fatalf("default report grew a discovery object:\n%s", pjs)
	}
	if plain.Discovery.Strategy != discovery.StrategySyntactic {
		t.Fatalf("default run recorded strategy %v", plain.Discovery.Strategy)
	}
}

// TestSemanticSessionTracksEpochs: a hybrid session whose semantic substrate
// is delta-maintained across mutation waves must match a fresh session (full
// rebuild, fresh embedding) at every epoch — the session-level face of the
// delta-equals-rebuild invariant.
func TestSemanticSessionTracksEpochs(t *testing.T) {
	b := buildTPTR(t)
	cfg := DefaultConfig()
	cfg.Discovery.Strategy = discovery.StrategyHybrid
	session := NewReclaimer(b.Lake, cfg)
	srcs := b.Sources
	if len(srcs) > 3 {
		srcs = srcs[:3]
	}
	for wave := 0; wave < 3; wave++ {
		if wave > 0 {
			mutateLake(t, b.Lake, wave)
		}
		fresh := NewReclaimer(b.Lake, cfg)
		for _, src := range srcs {
			want, err := fresh.ReclaimContext(context.Background(), src)
			if err != nil {
				t.Fatalf("wave %d %s: fresh: %v", wave, src.Name, err)
			}
			got, err := session.ReclaimContext(context.Background(), src)
			if err != nil {
				t.Fatalf("wave %d %s: session: %v", wave, src.Name, err)
			}
			assertSameResult(t, src.Name, want, got)
			if want.Discovery != got.Discovery {
				t.Errorf("wave %d %s: discovery stats differ: %+v vs %+v",
					wave, src.Name, want.Discovery, got.Discovery)
			}
		}
	}
}

// TestSemanticIndexesPersistAndInject: BuildIndexes under a hybrid session
// includes the semantic substrate; the persisted set reloads and injects
// into a new session, which answers identically to the building one.
func TestSemanticIndexesPersistAndInject(t *testing.T) {
	l := semLake()
	src := semSource()
	cfg := DefaultConfig()
	cfg.Discovery.Strategy = discovery.StrategyHybrid

	builder := NewReclaimer(l, cfg)
	set := builder.BuildIndexes()
	if set.Semantic == nil {
		t.Fatal("hybrid session's BuildIndexes omitted the semantic substrate")
	}
	dir := filepath.Join(t.TempDir(), "indexes")
	if err := set.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := builder.ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := index.LoadIndexSetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Semantic == nil {
		t.Fatal("persisted set reloaded without its semantic substrate")
	}
	injected := NewReclaimer(l, cfg)
	if err := injected.UseIndexes(loaded); err != nil {
		t.Fatal(err)
	}
	got, err := injected.ReclaimContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, src.Name, want, got)
	if want.Discovery != got.Discovery {
		t.Fatalf("injected session's discovery stats differ: %+v vs %+v", want.Discovery, got.Discovery)
	}
}
