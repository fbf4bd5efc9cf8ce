package discovery

import (
	"context"
	"fmt"
	"sort"

	"gent/internal/embed"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// Strategy selects the discovery channel(s) a query runs.
//
// The zero value is StrategySyntactic — the exact value-overlap pipeline
// (inverted index + MinHash-LSH first stage) unchanged from before the
// strategy seam existed, so default-configured sessions are bit-identical to
// history. StrategySemantic retrieves by cosine similarity over column
// embedding vectors instead: columns whose values were renamed, decorated or
// translated score zero exact overlap but stay close in embedding space.
// StrategyHybrid runs both and merges (union + rerank): a table found by
// both channels has its semantic score folded into its syntactic one, a
// semantic-only table joins the ranking at its weighted semantic score.
type Strategy int

const (
	StrategySyntactic Strategy = iota
	StrategySemantic
	StrategyHybrid
)

// String returns the wire/flag spelling of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategySyntactic:
		return "syntactic"
	case StrategySemantic:
		return "semantic"
	case StrategyHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps the wire/flag spelling back; "" is the default
// (syntactic) so absent options keep today's behavior.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "syntactic":
		return StrategySyntactic, nil
	case "semantic":
		return StrategySemantic, nil
	case "hybrid":
		return StrategyHybrid, nil
	}
	return StrategySyntactic, fmt.Errorf("discovery: unknown strategy %q", s)
}

// DiscoverStats is the per-channel candidate accounting of one discovery
// run, reported through Options.OnStats before expansion: how many
// candidates each channel contributed pre-merge. Zero counts are
// meaningful (a channel ran and found nothing); a channel the strategy did
// not run also reports zero.
type DiscoverStats struct {
	Strategy            Strategy
	SyntacticCandidates int
	SemanticCandidates  int
}

// Semantic-channel defaults. The cosine threshold is far above unrelated
// columns (≈0) and comfortably below same-content-decorated columns (≥0.7
// under the built-in embedder); the hybrid weight keeps a pure-semantic hit
// from outranking strong exact-overlap evidence unless its cosine is high.
const (
	DefaultSemanticTau    = 0.6
	DefaultSemanticTopK   = 32
	DefaultSemanticWeight = 0.5
)

func semanticTau(o Options) float64 {
	if o.SemanticTau > 0 {
		return o.SemanticTau
	}
	return DefaultSemanticTau
}

func semanticTopK(o Options) int {
	if o.SemanticTopK > 0 {
		return o.SemanticTopK
	}
	return DefaultSemanticTopK
}

func semanticWeight(o Options) float64 {
	if o.SemanticWeight > 0 {
		return o.SemanticWeight
	}
	return DefaultSemanticWeight
}

// finishDiscover is the shared tail of both Discover entry points: run the
// semantic channel when the strategy calls for it (against the prebuilt
// substrate when one is usable, else a fresh build over the snapshot), merge
// per the strategy, report stats, and expand.
func finishDiscover(ctx context.Context, snap *lake.Snapshot, prebuilt *index.CosineLSH, syn []*Candidate, src *table.Table, opts Options) ([]*Candidate, error) {
	stats := DiscoverStats{Strategy: opts.Strategy, SyntacticCandidates: len(syn)}
	merged := syn
	if opts.Strategy != StrategySyntactic {
		sem := prebuilt
		want := embed.Resolve(opts.Embedder).Fingerprint()
		if sem == nil || !sem.Embeddable() || sem.EmbedderFingerprint() != want {
			sem = index.BuildCosineLSH(snap, opts.Embedder)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		semCands, err := semanticCandidates(ctx, snap, sem, src, opts)
		if err != nil {
			return nil, err
		}
		stats.SemanticCandidates = len(semCands)
		if opts.Strategy == StrategySemantic {
			merged = semCands
			if opts.MaxCandidates > 0 && len(merged) > opts.MaxCandidates {
				merged = merged[:opts.MaxCandidates]
			}
		} else {
			merged = mergeHybrid(syn, semCands, semanticWeight(opts), opts.MaxCandidates)
		}
	}
	if opts.OnStats != nil {
		opts.OnStats(stats)
	}
	return expandContext(ctx, merged, src, opts)
}

// semMatch is one semantic hit of one Source column against one lake column.
type semMatch struct {
	sCol int
	ref  index.ColumnRef
	cos  float64
}

// semanticCandidates runs the semantic channel: embed each Source column,
// probe the cosine-LSH, rank lake tables by their averaged best-per-column
// cosine (mirroring Algorithm 3's averaged-overlap ranking), and assemble
// each ranked table with cosine-driven schema matching. There is no
// aligned-tuple verification — the channel exists precisely for candidates
// whose cell values do not literally appear in the Source.
func semanticCandidates(ctx context.Context, snap *lake.Snapshot, sem *index.CosineLSH, src *table.Table, opts Options) ([]*Candidate, error) {
	tau, topk := semanticTau(opts), semanticTopK(opts)
	emb := sem.Embedder()
	if emb == nil {
		return nil, nil
	}
	queryCols := 0
	best := make(map[string]map[int]float64) // table -> source col -> best cosine
	byTable := make(map[string][]semMatch)   // matches in (source col, rank) order
	for ci := range src.Cols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q, ok := embed.EmbedColumn(emb, src, ci)
		if !ok {
			continue
		}
		queryCols++
		for _, m := range sem.SearchVector(q, tau, topk) {
			if snap.Get(m.Ref.Table) == nil {
				continue // indexed but since removed from the lake
			}
			bc := best[m.Ref.Table]
			if bc == nil {
				bc = make(map[int]float64)
				best[m.Ref.Table] = bc
			}
			if m.Cosine > bc[ci] {
				bc[ci] = m.Cosine
			}
			byTable[m.Ref.Table] = append(byTable[m.Ref.Table], semMatch{sCol: ci, ref: m.Ref, cos: m.Cosine})
		}
	}
	if queryCols == 0 {
		return nil, nil
	}

	type rankedTable struct {
		name  string
		score float64
	}
	order := make([]rankedTable, 0, len(best))
	for name, cols := range best {
		sum := 0.0
		for _, c := range cols {
			sum += c
		}
		order = append(order, rankedTable{name, sum / float64(queryCols)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].name < order[j].name
	})

	cands := make([]*Candidate, 0, len(order))
	for _, rt := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, ok := assembleSemantic(snap, rt.name, byTable[rt.name], src)
		if !ok {
			continue
		}
		c.Score = rt.score
		cands = append(cands, c)
		if opts.MaxCandidates > 0 && len(cands) >= opts.MaxCandidates {
			break
		}
	}
	return cands, nil
}

// assembleSemantic schema-matches one semantically ranked table: its matched
// (lake column, Source column) pairs — best cosine per pair — feed the same
// greedy one-to-one rename assignment the syntactic channel uses, so a
// semantic candidate reaches Matrix Traversal carrying Source column names
// exactly like a syntactic one.
func assembleSemantic(snap *lake.Snapshot, name string, ms []semMatch, src *table.Table) (*Candidate, bool) {
	t := snap.Get(name)
	if t == nil || len(ms) == 0 {
		return nil, false
	}
	type key struct{ tCol, sCol int }
	bestPair := make(map[key]float64, len(ms))
	orderKeys := make([]key, 0, len(ms))
	for _, m := range ms {
		k := key{m.ref.Col, m.sCol}
		if cur, ok := bestPair[k]; !ok {
			bestPair[k] = m.cos
			orderKeys = append(orderKeys, k)
		} else if m.cos > cur {
			bestPair[k] = m.cos
		}
	}
	pairs := make([]renamePair, 0, len(orderKeys))
	for _, k := range orderKeys {
		pairs = append(pairs, renamePair{tCol: k.tCol, sCol: k.sCol, overlap: bestPair[k]})
	}
	renamed, matched := assignRename(t, src, pairs)
	if len(matched) == 0 {
		return nil, false
	}
	return &Candidate{Table: renamed, Sources: []string{name}, Semantic: true,
		form: snap.Interned(name).Retargeted(renamed), dict: snap.Dict()}, true
}

// mergeHybrid unions the two channels' candidates and reranks: a table both
// channels found keeps the syntactic assembly (exact-overlap alignment is
// strictly more trustworthy) with the weighted semantic score folded in; a
// semantic-only table enters at its weighted score. Ties break by first
// source name so the ranking is deterministic.
func mergeHybrid(syn, sem []*Candidate, weight float64, max int) []*Candidate {
	out := make([]*Candidate, 0, len(syn)+len(sem))
	byName := make(map[string]*Candidate, len(syn))
	for _, c := range syn {
		out = append(out, c)
		if len(c.Sources) > 0 {
			byName[c.Sources[0]] = c
		}
	}
	for _, c := range sem {
		if len(c.Sources) > 0 {
			if base, ok := byName[c.Sources[0]]; ok {
				base.Score += weight * c.Score
				continue
			}
		}
		c.Score *= weight
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Sources[0] < out[j].Sources[0]
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
