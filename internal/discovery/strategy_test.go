package discovery

import (
	"context"
	"reflect"
	"testing"

	"gent/internal/embed"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

func TestStrategyParseAndString(t *testing.T) {
	for _, s := range []Strategy{StrategySyntactic, StrategySemantic, StrategyHybrid} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, %v", s, got, err)
		}
	}
	if got, err := ParseStrategy(""); err != nil || got != StrategySyntactic {
		t.Errorf("empty spelling: got %v, %v, want syntactic default", got, err)
	}
	if _, err := ParseStrategy("cosmic"); err == nil {
		t.Error("unknown strategy parsed without error")
	}
}

// legacyDiscover replays the pre-strategy pipeline verbatim — the exact
// stage composition DiscoverSnapContext had before the strategy seam — so
// the equivalence test below pins the refactored layer to it bit-for-bit.
func legacyDiscover(t *testing.T, snap *lake.Snapshot, ix *index.Inverted, src *table.Table, opts Options) []*Candidate {
	t.Helper()
	ctx := context.Background()
	pool := snap
	if opts.FirstStageTopK > 0 && snap.Len() > opts.FirstStageTopK {
		pool = firstStagePool(snap, index.BuildMinHashLSH(snap), src, opts.FirstStageTopK)
	}
	if ix == nil {
		ix = index.BuildInverted(pool)
	}
	cands, err := setSimilarityContext(ctx, pool, ix, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := expandContext(ctx, cands, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSyntacticStrategyBitIdentical pins the strategy layer's default path
// to the pre-strategy pipeline: with semantic off, the layered entry points
// must produce bit-identical candidates and report a zero semantic count.
func TestSyntacticStrategyBitIdentical(t *testing.T) {
	l := exampleLake()
	src := exampleSource()
	snap := l.Snapshot()
	for _, opts := range []Options{
		DefaultOptions(),
		func() Options { o := DefaultOptions(); o.FirstStageTopK = 2; return o }(),
	} {
		want := legacyDiscover(t, snap, nil, src, opts)

		var stats []DiscoverStats
		opts.OnStats = func(s DiscoverStats) { stats = append(stats, s) }
		got, err := DiscoverSnapContext(context.Background(), snap, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("strategy-off DiscoverSnapContext diverged from legacy pipeline:\n got %v\nwant %v", got, want)
		}
		if len(stats) != 1 || stats[0].Strategy != StrategySyntactic || stats[0].SemanticCandidates != 0 {
			t.Fatalf("strategy-off stats = %+v", stats)
		}

		// Prebuilt substrates.
		gotWith, err := DiscoverWithSnapContext(context.Background(), snap, index.BuildIndexSet(snap), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotWith, want) {
			t.Fatal("strategy-off prebuilt-substrate path diverged from legacy pipeline")
		}
	}
}

// Twenty real city names: enough textual variety that character n-grams
// distinguish values, which fabricated "val-%d" strings would not.
var cityNames = []string{
	"london", "paris", "berlin", "madrid", "rome", "vienna", "prague",
	"warsaw", "lisbon", "dublin", "athens", "oslo", "stockholm", "helsinki",
	"budapest", "bucharest", "amsterdam", "brussels", "copenhagen", "zurich",
}

// translatedLake holds a value-translated twin of the Source column — every
// cell decorated so exact overlap is zero — plus unrelated noise.
func translatedLake() *lake.Lake {
	l := lake.New()
	tr := table.New("translated", "stadt")
	for _, c := range cityNames {
		tr.AddRow(table.S("de·" + c))
	}
	laketest.Add(l, tr)
	noise := table.New("noise", "fruit")
	for _, f := range []string{"apple", "pear", "plum", "cherry", "quince", "medlar"} {
		noise.AddRow(table.S(f))
	}
	laketest.Add(l, noise)
	return l
}

func citySource() *table.Table {
	src := table.New("Source", "city")
	for _, c := range cityNames {
		src.AddRow(table.S(c))
	}
	return src
}

// TestSemanticStrategyFindsTranslated: the semantic channel surfaces a
// candidate whose every cell value differs from the Source (so the syntactic
// channel scores it zero), schema-matched to the Source column.
func TestSemanticStrategyFindsTranslated(t *testing.T) {
	l := translatedLake()
	src := citySource()

	syn := Discover(l, src, DefaultOptions())
	if names := candidateNames(syn); names["translated"] {
		t.Fatal("translated table has zero exact overlap yet the syntactic channel found it")
	}

	opts := DefaultOptions()
	opts.Strategy = StrategySemantic
	var stats []DiscoverStats
	opts.OnStats = func(s DiscoverStats) { stats = append(stats, s) }
	cands := Discover(l, src, opts)
	names := candidateNames(cands)
	if !names["translated"] {
		t.Fatalf("semantic channel missed the translated table: %v", names)
	}
	if names["noise"] {
		t.Fatalf("semantic channel surfaced unrelated noise: %v", names)
	}
	for _, c := range cands {
		if c.Sources[0] != "translated" {
			continue
		}
		if !c.Semantic {
			t.Error("semantic candidate not marked Semantic")
		}
		if !c.Table.HasCols("city") {
			t.Errorf("semantic candidate not schema-matched to the Source: %v", c.Table.Cols)
		}
		if c.Score <= 0 {
			t.Errorf("semantic candidate score = %v", c.Score)
		}
	}
	if len(stats) != 1 || stats[0].Strategy != StrategySemantic ||
		stats[0].SemanticCandidates == 0 || stats[0].SyntacticCandidates != 0 {
		t.Fatalf("semantic stats = %+v", stats)
	}
}

// TestHybridMergesChannels: hybrid keeps the exact-overlap candidate AND the
// translated one, folding the semantic score of a doubly-found table into
// its syntactic candidate instead of duplicating it.
func TestHybridMergesChannels(t *testing.T) {
	l := translatedLake()
	exact := table.New("exact", "place")
	for _, c := range cityNames[:12] {
		exact.AddRow(table.S(c))
	}
	laketest.Add(l, exact)
	src := citySource()

	opts := DefaultOptions()
	opts.Strategy = StrategyHybrid
	var stats []DiscoverStats
	opts.OnStats = func(s DiscoverStats) { stats = append(stats, s) }
	cands := Discover(l, src, opts)
	names := candidateNames(cands)
	if !names["exact"] || !names["translated"] {
		t.Fatalf("hybrid union incomplete: %v", names)
	}
	perSource := make(map[string]int)
	for _, c := range cands {
		perSource[c.Sources[0]]++
	}
	if perSource["exact"] != 1 {
		t.Fatalf("doubly-found table appears %d times, want a single merged candidate", perSource["exact"])
	}
	if len(stats) != 1 || stats[0].Strategy != StrategyHybrid ||
		stats[0].SyntacticCandidates == 0 || stats[0].SemanticCandidates == 0 {
		t.Fatalf("hybrid stats = %+v", stats)
	}

	// The exact-overlap table is found by both channels: its merged score
	// must exceed its syntactic-only score.
	synOnly := Discover(l, src, DefaultOptions())
	var synScore, hybScore float64
	for _, c := range synOnly {
		if c.Sources[0] == "exact" {
			synScore = c.Score
		}
	}
	for _, c := range cands {
		if c.Sources[0] == "exact" {
			hybScore = c.Score
		}
	}
	if hybScore <= synScore {
		t.Fatalf("hybrid did not fold the semantic score in: syn %v, hybrid %v", synScore, hybScore)
	}
}

// TestHybridUsesPrebuiltSemanticIndex: a prebuilt, fingerprint-matching
// semantic substrate answers identically to the fresh per-query build, and a
// substrate whose embedder cannot be reconstructed is rebuilt rather than
// half-used.
func TestHybridUsesPrebuiltSemanticIndex(t *testing.T) {
	l := translatedLake()
	src := citySource()
	snap := l.Snapshot()
	opts := DefaultOptions()
	opts.Strategy = StrategyHybrid

	fresh, err := DiscoverSnapContext(context.Background(), snap, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.BuildIndexSetFull(snap, 0, nil)
	withSem, err := DiscoverWithSnapContext(context.Background(), snap, ix, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withSem, fresh) {
		t.Fatal("prebuilt semantic substrate answers differently from a fresh build")
	}

	// A mismatched embedder fingerprint must fall back to a fresh build.
	other := embed.NewNGramEmbedder(32, 2, 7)
	ix.Semantic = index.BuildCosineLSH(snap, other)
	mismatch, err := DiscoverWithSnapContext(context.Background(), snap, ix, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mismatch, fresh) {
		t.Fatal("fingerprint-mismatched substrate was not rebuilt")
	}
}
