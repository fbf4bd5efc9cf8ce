package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function (spans inside the program are a later issue). Parent
// is the index of the enclosing span in the tracer's list, -1 for a root; Op
// ties the spans of one operation together.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// tracer keeps spans in memory for the whole traced run and writes them out
// when the benchmark ends. It is driven by the single closed-loop client, so
// it needs no lock. Offsets are relative to the tracer's creation.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp opens a root span for the next operation and returns its closer.
func (tr *tracer) beginOp(name string) func() {
	tr.op++
	return tr.begin(name)
}

// begin opens a span under the innermost open one and returns its closer. A
// nil tracer records nothing, so untraced callers share the traced code.
func (tr *tracer) begin(name string) func() {
	if tr == nil {
		return func() {}
	}
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Start: time.Since(tr.t0), Parent: parent, Op: tr.op})
	tr.stack = append(tr.stack, id)
	return func() {
		tr.spans[id].End = time.Since(tr.t0)
		tr.stack = tr.stack[:len(tr.stack)-1]
	}
}

// selfTimes returns each span's duration minus the part of its interval its
// direct children cover. Children may nest (only direct children subtract —
// a grandchild is already inside its parent) and may overlap each other (a
// batch's concurrent items): the covered part is the union of the child
// intervals clipped to the span, so overlap is not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerOf maps a span name to its layer: the package under internal/ the
// span's call entered ("discovery.expand" → "discovery").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeTrace dumps the spans as JSON under dir.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
