package main

// metricDef declares one metric of the benchmark's contract. The two lists
// below are the single source of the names, units and bounds: the report
// printer, -aa and the BENCHMARK.json consistency test all read them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median the metric may worsen by (end-to-end only)
}

// endToEndCatalog is what a user of the system sees, from the untraced run.
// A bound is the issue's floor for the metric or twice the widest
// interquartile spread any workload showed in the A/A table in README.md (ten
// runs, another -seed each, as the driver measures it), whichever is larger,
// capped at the contract's 0.25 — which is where every timing lands on this
// host. The scores are functions of the outputs and repeat exactly; their
// bound is a formality. Every workload emits every metric (the builder
// contract requires it), so the workload-specific second series shares one
// name, aux_p50_ms: per-source milliseconds in a ReclaimAllContext batch on
// tptr_bigsrc and wide_candidates, a paged reclaim on lake_coldstart, a cache
// hit on gentd_churn.
var endToEndCatalog = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"aux_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"eis_mean", "score", "higher", 0.01},
	{"recall_mean", "score", "higher", 0.01},
	{"precision_mean", "score", "higher", 0.01},
}

// perLayerCatalog is the traced run's output: one line per layer boundary.
// Times are mean milliseconds per call of the named function; counts are
// means per replayed operation; shares are of replayed-operation time.
var perLayerCatalog = []metricDef{
	{"discovery.setsim_ms", "ms", "lower", 0},
	{"discovery.expand_ms", "ms", "lower", 0},
	{"discovery.candidates", "count", "lower", 0},
	{"discovery.share", "ratio", "lower", 0},
	{"index.probe_ms", "ms", "lower", 0},
	{"index.build_ms", "ms", "lower", 0},
	{"index.delta_ms", "ms", "lower", 0},
	{"index.save_ms", "ms", "lower", 0},
	{"index.load_ms", "ms", "lower", 0},
	{"index.share", "ratio", "lower", 0},
	{"matrix.traverse_ms", "ms", "lower", 0},
	{"matrix.scored", "count", "lower", 0},
	{"matrix.pruned", "count", "higher", 0},
	{"matrix.rounds", "count", "lower", 0},
	{"matrix.prune_ratio", "ratio", "higher", 0},
	{"matrix.share", "ratio", "lower", 0},
	{"integrate.ms", "ms", "lower", 0},
	{"integrate.tables_in", "count", "lower", 0},
	{"integrate.rows_out", "count", "higher", 0},
	{"integrate.share", "ratio", "lower", 0},
	{"metrics.evaluate_ms", "ms", "lower", 0},
	{"metrics.share", "ratio", "lower", 0},
	{"core.batch_wall_ms", "ms", "lower", 0},
	{"core.batch_busy_ratio", "ratio", "higher", 0},
	{"core.catchup_ms", "ms", "lower", 0},
	{"lake.open_ms", "ms", "lower", 0},
	{"lake.persist_ms", "ms", "lower", 0},
	{"lake.intern_ms", "ms", "lower", 0},
	{"lake.apply_ms", "ms", "lower", 0},
	{"lake.cache_hit_ratio", "ratio", "higher", 0},
	{"lake.evictions", "count", "lower", 0},
	{"lake.segment_loads", "count", "lower", 0},
	{"lake.resident_mb", "MB", "lower", 0},
	{"lake.share", "ratio", "lower", 0},
	{"table.dict_values", "count", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.apply_ms", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"trace.ops", "count", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.timing_agree_frac", "ratio", "lower", 0},
}

// workloadWhy records why each workload exists (one line; BENCHMARK.json
// carries the same text).
var workloadWhy = map[string]string{
	"tptr_bigsrc":     "big sources, at most 15 candidates: integrate does most of the work; batch passes expose parallel-no-faster-than-sequential",
	"wide_candidates": "25-135 candidates per source: discovery.Expand dominates and matrix pruning runs at depth; the mirror image of tptr_bigsrc",
	"lake_coldstart":  "working set 4x the resident cache: lake/table segment loads and index build dominate; set-up is the restart from the persisted lake",
	"gentd_churn":     "the service path: wire, admission, epoch-keyed result cache, lake.Apply and delta catch-up, writes beside reads",
}
