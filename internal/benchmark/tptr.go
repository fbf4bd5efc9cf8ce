package benchmark

import (
	"context"
	"fmt"
	"math/rand"

	"gent/internal/lake"
	"gent/internal/table"
	"gent/internal/tpch"
)

// protectedJoinCols are the alignment/join key columns never perturbed when
// building variants, so that lake tables stay joinable and alignable (the
// paper's variants likewise must remain combinable into the Source).
var protectedJoinCols = []string{
	"regionkey", "nationkey", "suppkey", "custkey", "partkey", "orderkey", "l_linenumber",
}

// TPTROptions parameterize a TP-TR benchmark build.
type TPTROptions struct {
	// Scale sizes the underlying TPC-H database.
	Scale tpch.Scale
	// NullRate is the fraction of values nullified in nullified variants
	// (0.5 in the main experiments).
	NullRate float64
	// ErrRate is the fraction of values corrupted in erroneous variants.
	ErrRate float64
	// Seed drives query generation and perturbation.
	Seed int64
	// MaxSourceRows caps each Source Table's size (0 = uncapped); the paper
	// similarly caps sources at 1K rows on the larger benchmarks.
	MaxSourceRows int
}

// DefaultTPTROptions mirrors the paper's 50%/50% main configuration at small
// scale.
func DefaultTPTROptions() TPTROptions {
	return TPTROptions{Scale: tpch.Small, NullRate: 0.5, ErrRate: 0.5, Seed: 11, MaxSourceRows: 200}
}

// TPTR is one TP-TR benchmark: a lake of 32 variant tables and 26 Source
// Tables with known integrating sets.
type TPTR struct {
	Name string
	// Originals holds the 8 unperturbed TPC-H tables (not in the lake).
	Originals *lake.Lake
	// Lake holds the 32 variants (4 per original).
	Lake *lake.Lake
	// Sources are the 26 Source Tables, keys set.
	Sources []*table.Table
	// Queries aligns 1:1 with Sources.
	Queries []*Query
	// IntegratingSets maps a source name to the variant tables derived from
	// the originals its query used — the "w/ int. set" inputs.
	IntegratingSets map[string][]string
}

// BuildTPTR constructs a TP-TR benchmark.
func BuildTPTR(name string, opts TPTROptions) (*TPTR, error) {
	if opts.NullRate == 0 && opts.ErrRate == 0 {
		opts = DefaultTPTROptions()
	}
	originals := tpch.Generate(opts.Scale)
	r := rand.New(rand.NewSource(opts.Seed))

	b := &TPTR{
		Name:            name,
		Originals:       originals,
		Lake:            lake.New(),
		IntegratingSets: make(map[string][]string),
	}

	variantsOf := make(map[string][]string)
	osnap := originals.Snapshot()
	var muts []lake.Mutation
	for _, tn := range tpch.TableNames {
		orig := osnap.Get(tn)
		v := MakeVariants(orig, protectedJoinCols, opts.NullRate, opts.ErrRate, r)
		for _, vt := range v.All() {
			muts = append(muts, lake.Put(vt))
			variantsOf[tn] = append(variantsOf[tn], vt.Name)
		}
	}
	// All variants land as one epoch turn.
	if _, err := b.Lake.Apply(context.Background(), muts...); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", name, err)
	}

	queries := GenerateQueries(opts.Seed)
	for _, q := range queries {
		src, err := q.Execute(originals)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", name, err)
		}
		if opts.MaxSourceRows > 0 && len(src.Rows) > opts.MaxSourceRows {
			src.Rows = src.Rows[:opts.MaxSourceRows]
		}
		if len(src.Rows) == 0 {
			continue // a selection can empty out at tiny scales
		}
		b.Sources = append(b.Sources, src)
		b.Queries = append(b.Queries, q)
		var set []string
		for _, tn := range q.Tables {
			set = append(set, variantsOf[tn]...)
		}
		b.IntegratingSets[src.Name] = set
	}
	return b, nil
}

// IntegratingTables resolves a source's integrating set to tables.
func (b *TPTR) IntegratingTables(sourceName string) []*table.Table {
	names := b.IntegratingSets[sourceName]
	out := make([]*table.Table, 0, len(names))
	snap := b.Lake.Snapshot()
	for _, n := range names {
		if t := snap.Get(n); t != nil {
			out = append(out, t)
		}
	}
	return out
}
