package server

import (
	"fmt"

	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/table"
)

// Wire types: the JSON shapes gentd speaks. The client package encodes and
// decodes exactly these, so the two cannot drift — both sides import this
// file. Cells travel as *string with the CSV value convention (table.Parse /
// Value.Text): nil or "" is null, decimal text is a number, anything else a
// string. Round-tripping is lossless for every value the CSV loader can
// produce.

// TableJSON is one relation on the wire.
type TableJSON struct {
	Name string   `json:"name"`
	Cols []string `json:"cols"`
	// Key names the key columns (names, not indices, so a reordered client
	// schema still means the same key).
	Key  []string    `json:"key,omitempty"`
	Rows [][]*string `json:"rows"`
}

// EncodeTable renders t in wire form.
func EncodeTable(t *table.Table) *TableJSON {
	w := &TableJSON{
		Name: t.Name,
		Cols: append([]string(nil), t.Cols...),
		Key:  t.KeyCols(),
		Rows: make([][]*string, len(t.Rows)),
	}
	for i, r := range t.Rows {
		row := make([]*string, len(r))
		for j, v := range r {
			if v.IsNull() {
				continue
			}
			s := v.Text()
			row[j] = &s
		}
		w.Rows[i] = row
	}
	return w
}

// DecodeTable materializes a wire table, validating shape and key names.
func DecodeTable(w *TableJSON) (*table.Table, error) {
	if w == nil {
		return nil, fmt.Errorf("missing table")
	}
	if w.Name == "" {
		return nil, fmt.Errorf("table has no name")
	}
	t := table.New(w.Name, w.Cols...)
	for _, k := range w.Key {
		i := t.ColIndex(k)
		if i < 0 {
			return nil, fmt.Errorf("table %q: key column %q not in cols", w.Name, k)
		}
		t.Key = append(t.Key, i)
	}
	for i, row := range w.Rows {
		if len(row) != len(w.Cols) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, want %d", w.Name, i, len(row), len(w.Cols))
		}
		vals := make([]table.Value, len(row))
		for j, c := range row {
			if c == nil {
				vals[j] = table.Null
			} else {
				vals[j] = table.Parse(*c)
			}
		}
		t.AddRow(vals...)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReclaimOptions are the per-request knobs a client may layer over the
// session configuration. Zero values mean "server default".
type ReclaimOptions struct {
	// Tau overrides the set-overlap threshold τ when > 0.
	Tau float64 `json:"tau,omitempty"`
	// MaxCandidates overrides the candidate-set cap when > 0.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// FirstStageTopK overrides the LSH first-stage size when > 0; -1 forces
	// whole-lake search even if the server default enables the first stage.
	FirstStageTopK int `json:"first_stage_top_k,omitempty"`
	// TimeoutMS deadlines this request; clamped to the server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// RequireCandidates turns an empty discovery result into an error
	// instead of an all-null reclamation.
	RequireCandidates bool `json:"require_candidates,omitempty"`
	// OmitTable drops the reclaimed rows from the response (metrics,
	// provenance and timing only) — load drivers measuring latency do not
	// need the payload.
	OmitTable bool `json:"omit_table,omitempty"`
}

// ReclaimRequest is the body of POST /v1/reclaim.
type ReclaimRequest struct {
	Source  *TableJSON      `json:"source"`
	Options *ReclaimOptions `json:"options,omitempty"`
}

// BatchRequest is the body of POST /v1/reclaim/stream.
type BatchRequest struct {
	Sources []*TableJSON    `json:"sources"`
	Options *ReclaimOptions `json:"options,omitempty"`
}

// MetricsJSON carries the effectiveness report.
type MetricsJSON struct {
	EIS       float64 `json:"eis"`
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
	F1        float64 `json:"f1"`
	InstDiv   float64 `json:"instance_divergence"`
	DKL       float64 `json:"conditional_kl"`
	Perfect   bool    `json:"perfect_reclamation"`
}

// OriginatingJSON is one picked candidate's provenance.
type OriginatingJSON struct {
	Tables []string `json:"tables"`
	Rows   int      `json:"rows"`
	Score  float64  `json:"score"`
}

// TimingJSON is the per-phase wall time in milliseconds.
type TimingJSON struct {
	Discover  float64 `json:"discover"`
	Traverse  float64 `json:"traverse"`
	Integrate float64 `json:"integrate"`
	Evaluate  float64 `json:"evaluate"`
	Total     float64 `json:"total"`
}

// ReclaimResponse is one source's reclamation on the wire.
type ReclaimResponse struct {
	Source string `json:"source"`
	// Epoch is the lake epoch the run was pinned to, in Epoch.String form;
	// EpochSeq is its sequence number for easy comparison.
	Epoch          string            `json:"epoch"`
	EpochSeq       uint64            `json:"epoch_seq"`
	CandidateCount int               `json:"candidate_count"`
	Originating    []OriginatingJSON `json:"originating_tables"`
	Metrics        MetricsJSON       `json:"metrics"`
	TimingMS       TimingJSON        `json:"timing_ms"`
	Reclaimed      *TableJSON        `json:"reclaimed,omitempty"`
}

// EncodeResult renders a pipeline result in wire form.
func EncodeResult(src string, res *core.Result, omitTable bool) *ReclaimResponse {
	out := &ReclaimResponse{
		Source:         src,
		Epoch:          res.Epoch.String(),
		EpochSeq:       res.Epoch.Seq,
		CandidateCount: res.CandidateCount,
		Metrics: MetricsJSON{
			EIS:       res.Report.EIS,
			Recall:    res.Report.Recall,
			Precision: res.Report.Precision,
			F1:        res.Report.F1,
			InstDiv:   res.Report.InstDiv,
			DKL:       res.Report.DKL,
			Perfect:   res.Report.PerfectReclamation,
		},
		TimingMS: TimingJSON{
			Discover:  msOf(res.Timing.Discover),
			Traverse:  msOf(res.Timing.Traverse),
			Integrate: msOf(res.Timing.Integrate),
			Evaluate:  msOf(res.Timing.Evaluate),
			Total:     msOf(res.Timing.Total()),
		},
	}
	for _, c := range res.Originating {
		out.Originating = append(out.Originating, OriginatingJSON{
			Tables: c.Sources,
			Rows:   c.Table.NumRows(),
			Score:  c.Score,
		})
	}
	if !omitTable && res.Reclaimed != nil {
		out.Reclaimed = EncodeTable(res.Reclaimed)
	}
	return out
}

// StreamItem is one NDJSON line of POST /v1/reclaim/stream: either Result or
// Error is set (a keyless source is an error item inside the 200 stream).
// Items stream in completion order; Index correlates them with the
// request's sources.
type StreamItem struct {
	Index  int              `json:"index"`
	Result *ReclaimResponse `json:"result,omitempty"`
	Error  *ErrorJSON       `json:"error,omitempty"`
}

// MutationJSON is one catalog edit for POST /v1/lake/apply.
type MutationJSON struct {
	// Op is "put", "drop" or "rename".
	Op    string     `json:"op"`
	Table *TableJSON `json:"table,omitempty"` // put
	Name  string     `json:"name,omitempty"`  // drop
	From  string     `json:"from,omitempty"`  // rename
	To    string     `json:"to,omitempty"`    // rename
}

// DecodeMutation maps a wire mutation onto the lake's Apply vocabulary.
func DecodeMutation(m MutationJSON) (lake.Mutation, error) {
	switch m.Op {
	case "put":
		t, err := DecodeTable(m.Table)
		if err != nil {
			return lake.Mutation{}, fmt.Errorf("put: %w", err)
		}
		return lake.Put(t), nil
	case "drop":
		if m.Name == "" {
			return lake.Mutation{}, fmt.Errorf("drop: missing name")
		}
		return lake.Drop(m.Name), nil
	case "rename":
		if m.From == "" || m.To == "" {
			return lake.Mutation{}, fmt.Errorf("rename: missing from/to")
		}
		return lake.Rename(m.From, m.To), nil
	}
	return lake.Mutation{}, fmt.Errorf("unknown op %q (want put, drop or rename)", m.Op)
}

// ApplyRequest is the body of POST /v1/lake/apply.
type ApplyRequest struct {
	Mutations []MutationJSON `json:"mutations"`
}

// ApplyResponse reports the epoch the batch produced and the lake's table
// count at that epoch.
type ApplyResponse struct {
	Epoch    string `json:"epoch"`
	EpochSeq uint64 `json:"epoch_seq"`
	Tables   int    `json:"tables"`
}

// IndexRequest is the body of POST /v1/index/save and /v1/index/load: a
// directory on the server's filesystem.
type IndexRequest struct {
	Dir string `json:"dir"`
}

// IndexResponse reports what the index operation did: "saved" (by
// /v1/index/save), or "loaded" (adopted as-is) or "built" (unusable, so
// built and saved) by /v1/index/load.
type IndexResponse struct {
	Action string `json:"action"`
	Epoch  string `json:"epoch"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Epoch     string            `json:"epoch"`
	EpochSeq  uint64            `json:"epoch_seq"`
	Tables    int               `json:"tables"`
	Draining  bool              `json:"draining"`
	Admission AdmissionStats    `json:"admission"`
	Cache     ResultCacheStats  `json:"result_cache"`
	Resident  lake.CacheStats   `json:"resident_cache"`
	TableFPs  map[string]uint64 `json:"table_fingerprints,omitempty"`
}

// ErrorJSON is the wire form of a failure: the message, the pipeline phase
// it arose in (when the cause was a *core.Error), the source being
// reclaimed, and a stable code the client maps back to the package's
// sentinel errors so errors.Is keeps working across the wire.
type ErrorJSON struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Source string `json:"source,omitempty"`
}
