package core

import (
	"errors"
	"fmt"
)

// Phase names one stage of the reclamation pipeline. Errors are tagged with
// the phase they arose in, and ProgressObserver events carry the phase they
// describe.
type Phase string

// The pipeline phases, in execution order.
const (
	// PhaseSource is input validation and key mining, before any lake work.
	PhaseSource Phase = "source"
	// PhaseDiscovery is Table Discovery (Set Similarity + Expand).
	PhaseDiscovery Phase = "discovery"
	// PhaseTraversal is Matrix Traversal.
	PhaseTraversal Phase = "traversal"
	// PhaseIntegration is Table Integration.
	PhaseIntegration Phase = "integration"
	// PhaseEvaluation is the effectiveness evaluation of the reclaimed table.
	PhaseEvaluation Phase = "evaluation"
	// PhaseBatch tags batch-level failures (ReclaimAllContext's dispatch
	// loop), as opposed to a failure inside one source's pipeline.
	PhaseBatch Phase = "batch"
)

// Sentinel errors, all surfaced wrapped in *Error so callers can match both
// the cause (errors.Is) and the phase (errors.As).
var (
	// ErrNoKey is returned when the Source Table has no declared key and none
	// can be mined.
	ErrNoKey = errors.New("core: source table has no minable key")
	// ErrNoCandidates is returned — only under Config.RequireCandidates —
	// when Table Discovery finds no candidate tables. The default pipeline
	// instead integrates nothing and returns an all-null reclamation, which
	// scores honestly but is indistinguishable from a served "not found"
	// without this guard.
	ErrNoCandidates = errors.New("core: discovery found no candidate tables")
	// ErrSessionStarted is returned by Reclaimer.UseIndexes once the session
	// has built or served a substrate at the lake's current epoch; injecting
	// then would mix substrates across that epoch's queries. Inject before
	// the epoch's first query — v3 relaxed the v2 one-shot rule, so a new
	// lake epoch reopens the injection window.
	ErrSessionStarted = errors.New("core: UseIndexes called after the epoch's first query; inject indexes before querying at an epoch")
)

// ErrEpochMismatch is returned by Reclaimer.UseIndexes when the injected
// set's epoch stamp does not match the lake's current epoch — the substrates
// describe a catalog version the lake is not at, and serving them would
// silently return wrong candidates. It wraps ErrSessionStarted, so v2
// callers matching the old sentinel still catch the refusal.
var ErrEpochMismatch = &sentinelError{
	msg:   "core: injected indexes were built at a different lake epoch; rebuild them first",
	cause: ErrSessionStarted,
}

// sentinelError is a sentinel that wraps an older sentinel for
// backwards-compatible errors.Is matching.
type sentinelError struct {
	msg   string
	cause error
}

func (e *sentinelError) Error() string { return e.msg }

// Unwrap exposes the wrapped legacy sentinel to errors.Is.
func (e *sentinelError) Unwrap() error { return e.cause }

// Error is the pipeline's error type: the failing phase, the source it was
// reclaiming, the phase timings that completed before the failure, and the
// underlying cause. Cancellation and deadline errors wrap ctx.Err(), so
// errors.Is(err, context.Canceled) and errors.Is(err, context.
// DeadlineExceeded) work; errors.As(err, **Error) recovers the phase and the
// partial Timing.
type Error struct {
	// Phase is the pipeline stage the error arose in.
	Phase Phase
	// Source names the source table, when known.
	Source string
	// Timing holds the durations of the phases that completed before the
	// failure; the failing phase's slot also carries its partial elapsed time
	// when the pipeline measured it.
	Timing Timing
	// Err is the underlying cause.
	Err error
}

// Error formats as "gent: <phase>: <cause>" with the source name when known.
func (e *Error) Error() string {
	if e.Source != "" {
		return fmt.Sprintf("gent: %s: source %q: %v", e.Phase, e.Source, e.Err)
	}
	return fmt.Sprintf("gent: %s: %v", e.Phase, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// phaseError tags err with the phase and context it arose in.
func phaseError(phase Phase, source string, timing Timing, err error) *Error {
	return &Error{Phase: phase, Source: source, Timing: timing, Err: err}
}
