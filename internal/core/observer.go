package core

import (
	"time"

	"gent/internal/lake"
)

// EventKind classifies a ProgressEvent.
type EventKind int

const (
	// EventPhaseStarted marks a phase beginning.
	EventPhaseStarted EventKind = iota
	// EventPhaseDone marks a phase completing, with Elapsed set and Count
	// carrying the phase's headline number (see ProgressEvent.Count).
	EventPhaseDone
	// EventTraverseRound reports one Matrix Traversal greedy round: Round,
	// Pick and Score are set.
	EventTraverseRound
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventPhaseStarted:
		return "started"
	case EventPhaseDone:
		return "done"
	case EventTraverseRound:
		return "round"
	}
	return "unknown"
}

// ProgressEvent is one structured observation from a reclamation run — the
// hook a server needs for tracing, metrics and per-query logging.
type ProgressEvent struct {
	// Source names the source table being reclaimed.
	Source string
	// Epoch is the lake epoch the run is pinned to: every event of one run
	// carries the same epoch, even if the lake is mutated mid-run.
	Epoch lake.Epoch
	// Phase is the pipeline stage the event describes.
	Phase Phase
	// Kind classifies the event.
	Kind EventKind
	// Elapsed is the phase duration, on EventPhaseDone.
	Elapsed time.Duration
	// Count is the phase's headline number on EventPhaseDone: discovery's
	// candidate count, traversal's originating-table count, integration's
	// reclaimed row count.
	Count int
	// Round is the 1-based greedy round, on EventTraverseRound (round 1 picks
	// the start table).
	Round int
	// Pick is the candidate index picked this round, on EventTraverseRound.
	Pick int
	// Score is the integration's EIS after the pick (EventTraverseRound), or
	// the final EIS (evaluation EventPhaseDone).
	Score float64
	// Scored and Pruned are the traversal engine's work counters, on the
	// traversal EventPhaseDone: candidate-rounds exact-scored versus skipped
	// because their admissible EIS-delta bound could not beat the round
	// leader. Scored+Pruned is the work an unpruned traversal would have done.
	Scored int
	Pruned int
	// Strategy names the discovery strategy the run used ("syntactic",
	// "semantic", "hybrid"), on the discovery EventPhaseDone.
	Strategy string
	// CandsSyntactic and CandsSemantic are the per-channel candidate counts
	// before merging, on the discovery EventPhaseDone — the per-strategy
	// series a server's metrics export.
	CandsSyntactic int
	CandsSemantic  int
}

// ProgressObserver receives structured phase events from a reclamation run.
// Within one run events arrive in pipeline order; across a concurrent batch
// (ReclaimAllContext, ReclaimStream) runs interleave, so Observe must be safe for
// concurrent use. Observe is called synchronously on the reclaiming
// goroutine — a slow observer slows the query.
type ProgressObserver interface {
	Observe(ProgressEvent)
}

// ObserverFunc adapts a function to the ProgressObserver interface.
type ObserverFunc func(ProgressEvent)

// Observe calls f.
func (f ObserverFunc) Observe(ev ProgressEvent) { f(ev) }

// emit sends ev to obs when one is configured.
func emit(obs ProgressObserver, ev ProgressEvent) {
	if obs != nil {
		obs.Observe(ev)
	}
}

// teeObserver fans every event out to each member in order.
type teeObserver []ProgressObserver

// Observe forwards ev to every member.
func (t teeObserver) Observe(ev ProgressEvent) {
	for _, o := range t {
		o.Observe(ev)
	}
}

// TeeObserver composes observers: every event goes to each non-nil observer
// in argument order. A server uses it to layer its metrics collection under
// a caller's per-query observer without either displacing the other. Nil
// members are dropped; zero live members yield a nil observer.
func TeeObserver(obs ...ProgressObserver) ProgressObserver {
	live := make(teeObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
