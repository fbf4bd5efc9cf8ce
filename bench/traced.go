package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// layerSpanMetrics maps a span name to the per-layer metric its self time
// feeds: mean milliseconds per traced operation.
var layerSpanMetrics = map[string]string{
	"discovery.setsim":  "discovery.setsim_ms",
	"discovery.expand":  "discovery.expand_ms",
	"index.probe":       "index.probe_ms",
	"index.build":       "index.build_ms",
	"index.delta":       "index.delta_ms",
	"index.save":        "index.save_ms",
	"index.load":        "index.load_ms",
	"matrix.traverse":   "matrix.traverse_ms",
	"integrate.reclaim": "integrate.ms",
	"metrics.evaluate":  "metrics.evaluate_ms",
	"lake.open":         "lake.open_ms",
	"lake.persist":      "lake.persist_ms",
	"lake.intern":       "lake.intern_ms",
	"lake.apply":        "lake.apply_ms",
}

// shareLayers are the layers whose share of operation time is reported.
var shareLayers = []string{"discovery", "matrix", "integrate", "metrics", "index", "lake"}

// runTraced is the second, traced run: a short untraced reference (so the
// tracing overhead is measured against the same process state), the set-up's
// layers one call at a time, then the operation list replayed through the
// layers' public functions for the rest of the budget.
func runTraced(ctx context.Context, w workload, opt options, rec *recorder, rep *report) error {
	ref := opt
	ref.seconds = opt.seconds / 4
	if opt.passes > 0 {
		ref.passes = 1
	}
	if _, err := timedPasses(ctx, ref, 1, func() error { return recordedPass(ctx, w, rec) }); err != nil {
		return fmt.Errorf("%s: reference pass: %w", w.name(), err)
	}

	tr, lc := newTracer(), layerCounts{}
	before := readHostCPU()
	if err := w.setupSpans(ctx, tr, lc); err != nil {
		return fmt.Errorf("%s: traced set-up: %w", w.name(), err)
	}
	rest := opt
	rest.seconds = opt.seconds - ref.seconds
	passes, err := timedPasses(ctx, rest, 1, func() error { return w.tracedPass(ctx, tr, lc) })
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", w.name(), err)
	}
	rep.Passes = passes

	// Spans stay on the wall clock; the metrics derived from them are granted
	// time like every other the benchmark reports, at the share the host
	// granted over the traced part as a whole.
	granted := grantedShare(before, readHostCPU())
	rep.Metrics = append(rep.Metrics, layerMetrics(tr.spans, lc, rec, granted)...)
	rep.add("host_granted_mean", granted, "ratio", 0)
	path, err := writeTrace(opt.workdir, w.name(), tr.spans)
	if err != nil {
		return err
	}
	rep.TraceFile = path
	return nil
}

// layerMetrics turns spans and counts into the per-layer metric set, times
// scaled by granted (the host's share over the traced part). Every name in
// perLayerCatalog is emitted; a layer a workload never enters reads 0.
func layerMetrics(spans []span, lc layerCounts, rec *recorder, granted float64) []metric {
	self := selfTimes(spans)
	byName := make(map[string]time.Duration)
	calls := make(map[string]int)
	// Per layer, the self time spent under "op" roots — what the shares are
	// shares of.
	inOp := make(map[string]time.Duration)
	var opTotal, pipeTotal time.Duration
	var opDur []float64
	for i, s := range spans {
		byName[s.Name] += self[i]
		calls[s.Name]++
		if s.Name == "op" {
			opTotal += s.End - s.Start
			opDur = append(opDur, ms(s.End-s.Start))
			continue
		}
		if s.Parent >= 0 && rootName(spans, i) == "op" {
			inOp[layerOf(s.Name)] += self[i]
			// What Result.Timing covers of an operation: the pipeline's
			// phases and the lazy substrate build inside the discovery
			// phase, not the lake.Open before the session exists.
			if spans[s.Parent].Name == "op" && s.Name != "lake.open" {
				pipeTotal += s.End - s.Start
			}
		}
	}

	vals := make(map[string]float64)
	for name, metricName := range layerSpanMetrics {
		if n := calls[name]; n > 0 {
			vals[metricName] = ms(byName[name]) / float64(n)
		}
	}
	ops := lc["ops"]
	for _, name := range []string{"discovery.candidates", "matrix.scored", "matrix.pruned", "matrix.rounds",
		"integrate.tables_in", "integrate.rows_out"} {
		if ops > 0 {
			vals[name] = lc[name] / ops
		}
	}
	if t := lc["matrix.scored"] + lc["matrix.pruned"]; t > 0 {
		vals["matrix.prune_ratio"] = lc["matrix.pruned"] / t
	}
	if n := lc["core.batches"]; n > 0 {
		vals["core.batch_wall_ms"] = lc["core.batch_wall_ms"] / n
		vals["core.batch_busy_ratio"] = lc["core.batch_busy_ratio"] / n
	}
	for _, name := range []string{"core.catchup_ms", "server.overhead_ms", "server.apply_ms"} {
		if n := lc[name+".n"]; n > 0 {
			vals[name] = lc[name] / n
		}
	}
	for _, name := range []string{"lake.cache_hit_ratio", "lake.evictions", "lake.segment_loads", "lake.resident_mb",
		"table.dict_values", "server.cache_hit_ratio", "server.shed"} {
		vals[name] = lc[name]
	}
	for _, layer := range shareLayers {
		if opTotal > 0 {
			vals[layer+".share"] = float64(inOp[layer]) / float64(opTotal)
		}
	}
	if len(opDur) > 0 {
		vals["trace.ops"] = float64(len(opDur))
		// Both compare the traced passes with the untraced reference passes
		// before them, each at its own granted share.
		ref := mean(rec.granted)
		if p50 := percentile(rec.mirror, 0.5) * ref; p50 > 0 {
			vals["trace.overhead_frac"] = percentile(opDur, 0.5)*granted/p50 - 1
		}
		if want := mean(rec.pipeline) * ref; want > 0 {
			vals["trace.timing_agree_frac"] = (ms(pipeTotal)/float64(len(opDur)))*granted/want - 1
		}
	}

	out := make([]metric, 0, len(perLayerCatalog))
	for _, d := range perLayerCatalog {
		v := vals[d.Name]
		if d.Unit == "ms" {
			v *= granted
		}
		out = append(out, metric{Name: d.Name, Value: v, Unit: d.Unit})
	}
	return out
}

// rootName is the name of the root span above span i.
func rootName(spans []span, i int) string {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return spans[i].Name
}

// shareTable renders "where the time goes" for one traced report.
func shareTable(rep *report) string {
	type row struct {
		name string
		v    float64
	}
	var rows []row
	for _, layer := range shareLayers {
		if m, ok := rep.get(layer + ".share"); ok && m.Value > 0 {
			rows = append(rows, row{layer, m.Value})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("  %-10s %5.1f %%\n", r.name, 100*r.v)
	}
	return s
}
