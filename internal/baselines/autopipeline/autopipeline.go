// Package autopipeline implements Auto-Pipeline* — the paper's adaptation of
// Auto-Pipeline (Yang, He, Chaudhuri, VLDB 2021) to the reclamation problem:
// a by-target pipeline synthesizer that searches over the operator set
// {σ, π, ∪, ⋈, ⟕, ⟗} for the pipeline whose output best matches the target
// table. The original is closed source and RL-based; per the paper we use
// the query-search variant: bounded best-first search scored against the
// target. A result carries the pipeline it synthesized, rendered in
// relational-algebra notation, alongside its output table.
package autopipeline

import (
	"sort"

	"gent/internal/metrics"
	"gent/internal/table"
)

// Options bounds the search.
type Options struct {
	// Beam is the number of states kept per depth.
	Beam int
	// MaxDepth is the maximum number of binary operators applied.
	MaxDepth int
	// NodeBudget caps total states explored; exhausting it reports a
	// timeout, standing in for the paper's wall-clock timeouts.
	NodeBudget int
	// MaxRows prunes intermediate results larger than this.
	MaxRows int
}

// DefaultOptions are sized for the TP-TR Small regime, the only benchmark
// the paper could run Auto-Pipeline* on.
func DefaultOptions() Options {
	return Options{Beam: 6, MaxDepth: 4, NodeBudget: 600, MaxRows: 20000}
}

// Result is a synthesis outcome.
type Result struct {
	Table *table.Table
	// Pipeline is the synthesized pipeline (before the trailing π/σ that
	// finalizes every pipeline against the target), rendered over the input
	// tables' names as nested binary operators: "((a ⋈ b) ∪ c)", with ⟕
	// and ⟗ for the left and full outer joins. It is "" when there were no
	// inputs. This is what a by-target system actually delivers — the
	// pipeline, not just its output.
	Pipeline string
	// TimedOut reports the node budget was exhausted before the search
	// frontier emptied.
	TimedOut bool
	// Explored counts search states expanded.
	Explored int
}

type state struct {
	t     *table.Table
	plan  string
	score float64
	depth int
}

// Synthesize searches for a pipeline over the inputs whose output best
// matches the target, and returns that best output (finalized by projecting
// onto the target schema and selecting target keys).
func Synthesize(target *table.Table, inputs []*table.Table, opts Options) Result {
	if opts.Beam <= 0 {
		opts = DefaultOptions()
	}
	if len(inputs) == 0 {
		return Result{Table: table.New("autopipeline").PadNullColumns(target.Cols)}
	}

	score := func(t *table.Table) float64 {
		return metrics.EIS(target, finalize(target, t))
	}

	frontier := make([]state, 0, len(inputs))
	for _, in := range inputs {
		frontier = append(frontier, state{
			t: in, plan: in.Name, score: score(in),
		})
	}
	sortStates(frontier)
	if len(frontier) > opts.Beam {
		frontier = frontier[:opts.Beam]
	}

	best := frontier[0]
	explored := 0
	timedOut := false

search:
	for len(frontier) > 0 {
		next := make([]state, 0, len(frontier)*len(inputs)*2)
		for _, st := range frontier {
			if st.depth >= opts.MaxDepth {
				continue
			}
			for _, in := range inputs {
				for _, op := range applyOps(st, in, opts.MaxRows) {
					explored++
					if opts.NodeBudget > 0 && explored > opts.NodeBudget {
						timedOut = true
						break search
					}
					op.score = score(op.t)
					op.depth = st.depth + 1
					next = append(next, op)
					if op.score > best.score {
						best = op
					}
				}
			}
		}
		sortStates(next)
		if len(next) > opts.Beam {
			next = next[:opts.Beam]
		}
		frontier = next
	}

	return Result{
		Table:    finalize(target, best.t),
		Pipeline: best.plan,
		TimedOut: timedOut,
		Explored: explored,
	}
}

// applyOps generates successor states of combining cur with input table in
// by each operator in the allowed set, recording the operator applied.
func applyOps(cur state, in *table.Table, maxRows int) []state {
	out := make([]state, 0, 4)
	keep := func(t *table.Table, op string) {
		if len(t.Rows) > 0 && (maxRows <= 0 || len(t.Rows) <= maxRows) {
			out = append(out, state{t: t, plan: "(" + cur.plan + " " + op + " " + in.Name + ")"})
		}
	}
	if table.SameSchema(cur.t, in) {
		keep(table.InnerUnion(cur.t, in), "∪")
	}
	if len(table.CommonCols(cur.t, in)) > 0 {
		keep(table.InnerJoin(cur.t, in), "⋈")
		keep(table.LeftJoin(cur.t, in), "⟕")
		keep(table.FullOuterJoin(cur.t, in), "⟗")
	}
	return out
}

// finalize applies the trailing π and σ every synthesized pipeline ends
// with: project onto the target's columns and keep rows with target keys.
func finalize(target, t *table.Table) *table.Table {
	p := t.Project(target.Cols...)
	p = p.PadNullColumns(target.Cols)
	if len(target.Key) == 0 {
		return p.DropDuplicates()
	}
	keySets := make([]map[string]bool, len(target.Key))
	keyCols := make([]int, len(target.Key))
	for i, k := range target.Key {
		keySets[i] = target.ColumnSet(k)
		keyCols[i] = p.ColIndex(target.Cols[k])
	}
	sel := p.Select(func(tb *table.Table, r table.Row) bool {
		for i, ci := range keyCols {
			if r[ci].IsNull() || !keySets[i][r[ci].Key()] {
				return false
			}
		}
		return true
	})
	return sel.DropDuplicates()
}

func sortStates(ss []state) {
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		// Prefer smaller intermediates on ties.
		return ss[i].t.NumCells() < ss[j].t.NumCells()
	})
}
