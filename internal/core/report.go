package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gent/internal/table"
)

// jsonReport is the machine-readable form of a Result, for downstream
// tooling (dashboards, CI checks on reclamation quality, ...).
type jsonReport struct {
	Source      string            `json:"source"`
	KeyColumns  []string          `json:"key_columns"`
	Metrics     jsonMetrics       `json:"metrics"`
	Originating []jsonOriginating `json:"originating_tables"`
	Candidates  int               `json:"candidate_count"`
	TimingMS    jsonTiming        `json:"timing_ms"`
	Tuples      *jsonTupleCounts  `json:"tuples,omitempty"`
	Traversal   *jsonTraversal    `json:"traversal,omitempty"`
}

type jsonMetrics struct {
	EIS       float64 `json:"eis"`
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
	F1        float64 `json:"f1"`
	InstDiv   float64 `json:"instance_divergence"`
	DKL       float64 `json:"conditional_kl"`
	SizeRatio float64 `json:"size_ratio"`
	Perfect   bool    `json:"perfect_reclamation"`
}

type jsonOriginating struct {
	Tables []string `json:"tables"`
	Rows   int      `json:"rows"`
	Score  float64  `json:"score"`
}

type jsonTiming struct {
	Discover  float64 `json:"discover"`
	Traverse  float64 `json:"traverse"`
	Integrate float64 `json:"integrate"`
	Evaluate  float64 `json:"evaluate"`
	Total     float64 `json:"total"`
}

type jsonTupleCounts struct {
	Exact       int `json:"exact"`
	Partial     int `json:"partial"`
	Conflicting int `json:"conflicting"`
	Missing     int `json:"missing"`
}

// jsonTraversal is the traversal engine's work accounting: candidate-rounds
// exact-scored vs pruned by the admissible bound, per greedy round summed.
type jsonTraversal struct {
	Rounds int `json:"rounds"`
	Scored int `json:"candidates_scored"`
	Pruned int `json:"candidates_pruned"`
}

// WriteJSON renders the result as indented JSON. When src is non-nil the
// per-tuple explanation counts are included; a Source without a declared
// key reports the key the run aligned on (Result.Key).
func (r *Result) WriteJSON(w io.Writer, src *table.Table) error {
	rep := jsonReport{
		Candidates: r.CandidateCount,
		Metrics: jsonMetrics{
			EIS:       r.Report.EIS,
			Recall:    r.Report.Recall,
			Precision: r.Report.Precision,
			F1:        r.Report.F1,
			InstDiv:   r.Report.InstDiv,
			DKL:       r.Report.DKL,
			SizeRatio: r.Report.SizeRatio,
			Perfect:   r.Report.PerfectReclamation,
		},
		TimingMS: jsonTiming{
			Discover:  ms(r.Timing.Discover),
			Traverse:  ms(r.Timing.Traverse),
			Integrate: ms(r.Timing.Integrate),
			Evaluate:  ms(r.Timing.Evaluate),
			Total:     ms(r.Timing.Total()),
		},
	}
	if src != nil {
		src = r.keyed(src)
		rep.Source = src.Name
		rep.KeyColumns = src.KeyCols()
		if len(src.Key) > 0 {
			e := r.Explain(src)
			rep.Tuples = &jsonTupleCounts{
				Exact:       e.Counts[TupleExact],
				Partial:     e.Counts[TuplePartial],
				Conflicting: e.Counts[TupleConflicting],
				Missing:     e.Counts[TupleMissing],
			}
		}
	}
	if r.Traversal.Rounds > 0 {
		rep.Traversal = &jsonTraversal{
			Rounds: r.Traversal.Rounds,
			Scored: r.Traversal.CandidatesScored,
			Pruned: r.Traversal.CandidatesPruned,
		}
	}
	for _, c := range r.Originating {
		rep.Originating = append(rep.Originating, jsonOriginating{
			Tables: c.Sources,
			Rows:   c.Table.NumRows(),
			Score:  c.Score,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("core: encoding report: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
