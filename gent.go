// Package gent is the public API of the Gen-T table-reclamation system
// (Fan, Shraga, Miller: "Gen-T: Table Reclamation in Data Lakes", ICDE
// 2024).
//
// Given a Source Table and a data lake, Gen-T discovers a set of originating
// tables and integrates them — with outer union, selection, projection,
// subsumption and complementation — into a table that reproduces the Source
// as closely as possible, measured by the error-aware instance similarity
// (EIS) score.
//
// Quickstart:
//
//	lake, _ := gent.LoadLake("path/to/lake")
//	src, _ := gent.LoadTable("source.csv")
//	res, err := gent.Reclaim(lake, src, gent.DefaultConfig())
//	if err != nil { ... }
//	fmt.Println(res.Report.EIS, res.Reclaimed)
//
// # The context-first surface
//
// Every entry point takes a context, runs under one Config, honors
// cancellation and deadlines at every phase boundary (and at preemption
// points inside discovery, traversal and integration), and fails with a
// phase-tagged *Error; Reclaim is the one plain convenience:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	cfg := gent.DefaultConfig()
//	cfg.TraverseWorkers = 4
//	cfg.Observer = gent.ObserverFunc(func(ev gent.ProgressEvent) {
//	    log.Printf("%s %s %s", ev.Source, ev.Phase, ev.Kind)
//	})
//	res, err := gent.ReclaimContext(ctx, lake, src, cfg)
//	var gerr *gent.Error
//	if errors.As(err, &gerr) {
//	    log.Printf("failed in %s after %s: %v", gerr.Phase, gerr.Timing.Total(), gerr.Err)
//	}
//
// Reclaim builds the discovery indexes fresh on every call. For the
// build-once-query-many deployment the paper assumes — one lake serving many
// Source Tables — open a session instead: a Reclaimer indexes the lake once
// (lazily, or from indexes persisted with SaveIndexes/LoadIndexes) and
// shares the indexes across queries, including concurrent batches:
//
//	r := gent.NewReclaimer(lake, gent.DefaultConfig())
//	res, err := r.ReclaimContext(ctx, src)        // indexes built here, once
//	for item := range r.ReclaimStream(ctx, sources, workers) {
//	    // items arrive in completion order, memory bounded by workers
//	}
//	items, err := r.ReclaimAllContext(ctx, sources, workers) // collected, input order
//
// A query under another configuration — an ablation, a parameter sweep —
// goes through a handle on the same session, which reuses its indexes:
//
//	ablate := gent.DefaultConfig()
//	ablate.SkipTraversal = true
//	res, err = r.WithConfig(ablate).ReclaimContext(ctx, src)
//
// # The epoch-versioned surface
//
// Real lakes are autonomous — tables appear, change and vanish while the
// server is running. The lake is an epoch-versioned catalog: mutations
// go through Apply (Put, Drop, Rename), each batch producing a new
// immutable Snapshot stamped with an Epoch, and a session tracks the lake
// across epochs by maintaining its indexes incrementally (postings and
// sketch deltas for exactly the tables that changed — no corpus rescan):
//
//	epoch, err := lake.Apply(ctx,
//	    gent.Put(newTable),               // add or replace
//	    gent.Drop("stale_export"),        // remove
//	    gent.RenameTable("tmp", "final"), // move
//	)
//	res, err := r.ReclaimContext(ctx, src) // indexes caught up, not rebuilt
//
// Reads go through a pinned Snapshot (Lake.Snapshot), never the Lake itself.
// Queries pin the snapshot they start on, RCU-style: a query in flight when
// Apply lands completes on the epoch it started at — no locks on the query
// path, no torn reads — and the next query sees the new epoch. Observer
// events carry the pinned Epoch. Persisted index sets are stamped with
// their epoch too; Reclaimer.UseIndexes accepts a set between epochs (and
// refuses a stale stamp with ErrEpochMismatch, which wraps
// ErrSessionStarted), and cmd/gent -index-dir loads a persisted set stamped
// at the lake's epoch and rebuilds any other.
//
// # Serving
//
// The same session goes on a port: NewServer wraps a Reclaimer in gentd's
// HTTP/JSON surface — single, batch and NDJSON-streamed reclamation,
// Apply-over-the-wire, index save/load, /metrics — with bounded admission
// (shed with 429 past the queue), per-request deadlines, an epoch-keyed
// result cache invalidated by the next Apply, and graceful drain:
//
//	srv := gent.NewServer(gent.NewReclaimer(lake, cfg), gent.ServerConfig{})
//	go http.ListenAndServe(":8080", srv.Handler())
//	...
//	srv.Drain(ctx) // 503 on /healthz, refuse new work, wait for the tail
//
// cmd/gentd is the ready-made daemon (and its own smoke client); see the
// README's Serving section for the endpoint table.
package gent

import (
	"context"
	"io"

	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/matrix"
	"gent/internal/metrics"
	"gent/internal/server"
	"gent/internal/table"
)

// Re-exported data model. These aliases expose the full functionality of the
// internal packages through the public API.
type (
	// Table is a named relation with optional key.
	Table = table.Table
	// Row is one tuple.
	Row = table.Row
	// Value is one cell; use S, N, Null.
	Value = table.Value
	// Lake is a catalog of data lake tables.
	Lake = lake.Lake
	// LakeStats summarizes a lake corpus.
	LakeStats = lake.Stats
	// Config tunes a reclamation run.
	Config = core.Config
	// Result is a reclamation outcome: reclaimed table, originating tables,
	// metrics and timing.
	Result = core.Result
	// Timing breaks a run down by phase (Discover, Traverse, Integrate,
	// Evaluate).
	Timing = core.Timing
	// Report bundles the effectiveness measures (EIS, Recall, Precision,
	// Instance Divergence, DKL, ...).
	Report = metrics.Report
	// DiscoveryOptions tunes candidate retrieval (τ, caps, LSH first
	// stage).
	DiscoveryOptions = discovery.Options
	// Candidate is a discovered table with lake provenance.
	Candidate = discovery.Candidate
	// Explanation is a per-tuple reclamation breakdown (call
	// Result.Explain).
	Explanation = core.Explanation
	// TupleStatus classifies one source tuple's reclamation outcome.
	TupleStatus = core.TupleStatus
	// Reclaimer is a handle on a reusable session over one lake: the
	// discovery indexes are built once per lake epoch — incrementally
	// maintained across epochs — and shared across all of its queries, and
	// across every handle Reclaimer.WithConfig derives.
	Reclaimer = core.Reclaimer
	// Epoch identifies one version of a lake's catalog; see Lake.Apply.
	Epoch = lake.Epoch
	// Snapshot is one immutable lake version: pin one (Lake.Snapshot) and
	// every read is torn-free under concurrent mutation.
	Snapshot = lake.Snapshot
	// Mutation is one catalog edit for Lake.Apply; see Put, Drop,
	// RenameTable.
	Mutation = lake.Mutation
	// CacheStats reports the lake's resident interned-form cache traffic;
	// see Lake.CacheStats, Lake.SetResidentBudget, Lake.SetSegmentStore.
	CacheStats = lake.CacheStats
	// SegmentStore is the disk tier evicted interned forms spill to and
	// reload from (Lake.SetSegmentStore); see NewSegmentStore.
	SegmentStore = table.SegmentStore
	// BatchItem is one source's outcome within a batch or stream.
	BatchItem = core.BatchItem
	// IndexSet bundles a lake's persisted discovery indexes.
	IndexSet = index.IndexSet
	// Error is the pipeline error: the failing Phase, the source name, the
	// partial Timing, and the cause (errors.Is/As reach through it).
	Error = core.Error
	// Phase names one pipeline stage (see PhaseDiscovery et al.).
	Phase = core.Phase
	// ProgressObserver receives structured phase events from a run; attach
	// one with Config.Observer.
	ProgressObserver = core.ProgressObserver
	// ProgressEvent is one structured observation (phase started/done, or a
	// traversal round's pick and score).
	ProgressEvent = core.ProgressEvent
	// EventKind classifies a ProgressEvent.
	EventKind = core.EventKind
	// ObserverFunc adapts a function to ProgressObserver.
	ObserverFunc = core.ObserverFunc
	// Server is gentd's HTTP/JSON surface over one Reclaimer session; see
	// NewServer.
	Server = server.Server
	// ServerConfig tunes a Server: admission bounds, request timeout,
	// result-cache budget.
	ServerConfig = server.Config
)

// Tuple statuses for Explanation entries.
const (
	// TupleMissing: the tuple's key is not derivable from the lake.
	TupleMissing = core.TupleMissing
	// TuplePartial: reclaimed with some values still null.
	TuplePartial = core.TuplePartial
	// TupleConflicting: the lake contradicts the source on some value.
	TupleConflicting = core.TupleConflicting
	// TupleExact: reproduced exactly.
	TupleExact = core.TupleExact
)

// Matrix encodings for Config.Encoding.
const (
	// ThreeValued is Gen-T's matrix encoding (match/null/contradiction).
	ThreeValued = matrix.ThreeValued
	// TwoValued is the ablation encoding that cannot see contradictions.
	TwoValued = matrix.TwoValued
)

// Pipeline phases, as tagged on *Error and ProgressEvent.
const (
	// PhaseSource is input validation and key mining.
	PhaseSource = core.PhaseSource
	// PhaseDiscovery is Table Discovery (Set Similarity + Expand).
	PhaseDiscovery = core.PhaseDiscovery
	// PhaseTraversal is Matrix Traversal.
	PhaseTraversal = core.PhaseTraversal
	// PhaseIntegration is Table Integration.
	PhaseIntegration = core.PhaseIntegration
	// PhaseEvaluation is the effectiveness evaluation.
	PhaseEvaluation = core.PhaseEvaluation
	// PhaseBatch tags batch-level failures (ReclaimAllContext).
	PhaseBatch = core.PhaseBatch
)

// ProgressEvent kinds.
const (
	// EventPhaseStarted marks a phase beginning.
	EventPhaseStarted = core.EventPhaseStarted
	// EventPhaseDone marks a phase completing (Elapsed and Count set).
	EventPhaseDone = core.EventPhaseDone
	// EventTraverseRound reports one traversal greedy round (Round, Pick,
	// Score set).
	EventTraverseRound = core.EventTraverseRound
)

// Sentinel errors; every pipeline failure wraps one cause inside a *Error,
// so match causes with errors.Is and recover the phase with errors.As.
var (
	// ErrNoKey: the Source Table has no declared key and none can be mined.
	ErrNoKey = core.ErrNoKey
	// ErrNoCandidates: discovery found nothing (only under
	// Config.RequireCandidates).
	ErrNoCandidates = core.ErrNoCandidates
	// ErrSessionStarted: Reclaimer.UseIndexes was called after the current
	// epoch's first query (v3 relaxed the v2 one-shot rule: a new lake epoch
	// reopens the injection window).
	ErrSessionStarted = core.ErrSessionStarted
	// ErrEpochMismatch: the injected index set was stamped at a different
	// lake epoch; it wraps ErrSessionStarted for v2 callers.
	ErrEpochMismatch = core.ErrEpochMismatch
	// ErrBadMutation: Lake.Apply rejected a mutation batch; the lake is
	// unchanged.
	ErrBadMutation = lake.ErrBadMutation
)

// Mutations for Lake.Apply — the v3 epoch-versioned mutation surface.

// Put registers (or replaces) a table in the lake at the next epoch.
func Put(t *Table) Mutation { return lake.Put(t) }

// Drop removes the named table at the next epoch.
func Drop(name string) Mutation { return lake.Drop(name) }

// RenameTable moves a table to a new name at the next epoch, sharing the
// stored rows (no copy, no re-interning).
func RenameTable(oldName, newName string) Mutation { return lake.Rename(oldName, newName) }

// Null is the missing value ⊥.
var Null = table.Null

// S returns a string cell value.
func S(s string) Value { return table.S(s) }

// N returns a numeric cell value.
func N(f float64) Value { return table.N(f) }

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...string) *Table { return table.New(name, cols...) }

// NewLake returns an empty in-memory lake.
func NewLake() *Lake { return lake.New() }

// LoadLake reads every CSV file under dir into a lake; unreadable files are
// skipped and reported.
func LoadLake(dir string) (*Lake, []error) { return lake.LoadDir(dir) }

// OpenLake reads a lake persisted with Lake.Persist: catalog, epoch and
// value dictionary are restored verbatim, and interned table forms page in
// lazily from the segment files under dir, so opening a beyond-RAM lake is
// cheap. Combine with Lake.SetResidentBudget to bound resident memory.
func OpenLake(dir string) (*Lake, error) { return lake.Open(dir) }

// NewSegmentStore opens (creating if needed) a directory of on-disk table
// segments — the spill/reload tier behind Lake.SetSegmentStore.
func NewSegmentStore(dir string) (*SegmentStore, error) { return table.NewSegmentStore(dir) }

// LoadTable reads one CSV file.
func LoadTable(path string) (*Table, error) { return table.LoadCSVFile(path) }

// ReadTable parses CSV from a reader.
func ReadTable(r io.Reader, name string) (*Table, error) { return table.ReadCSV(r, name) }

// SaveTable writes a table as CSV.
func SaveTable(path string, t *Table) error { return table.SaveCSVFile(path, t) }

// DefaultConfig mirrors the paper's Gen-T configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Reclaim runs the full Gen-T pipeline: Table Discovery, Matrix Traversal
// and Table Integration. The Source must have a key, or one minable within
// three columns. The discovery indexes are rebuilt on every call; use a
// Reclaimer to amortize them over many queries. It is ReclaimContext under
// context.Background() — the one plain convenience the package keeps.
func Reclaim(l *Lake, src *Table, cfg Config) (*Result, error) {
	return ReclaimContext(context.Background(), l, src, cfg)
}

// ReclaimContext is Reclaim under a context. Cancellation or deadline
// expiry aborts at the next phase boundary (or mid-phase preemption point)
// with a *Error tagging the phase, wrapping ctx.Err(), and carrying the
// partial Timing.
func ReclaimContext(ctx context.Context, l *Lake, src *Table, cfg Config) (*Result, error) {
	return core.ReclaimContext(ctx, l, src, cfg)
}

// NewReclaimer opens a reusable reclamation session over a lake. Indexes
// are built lazily on the first query of each lake epoch — incrementally
// maintained when the lake evolves via Apply — and shared by every query at
// that epoch: ReclaimContext, ReclaimAllContext and ReclaimStream, through
// the returned handle or any Reclaimer.WithConfig derives from it. Inject
// persisted ones with Reclaimer.UseIndexes before an epoch's first query.
func NewReclaimer(l *Lake, cfg Config) *Reclaimer { return core.NewReclaimer(l, cfg) }

// NewServer wraps a session in the gentd HTTP surface: mount
// Server.Handler() on an http.Server, stop with Server.Drain. The zero
// ServerConfig sizes admission off the session and enables a 64 MiB
// epoch-keyed result cache. TeeObservers compose: the server's metrics
// observer layers under any Config.Observer.
func NewServer(r *Reclaimer, cfg ServerConfig) *Server { return server.New(r, cfg) }

// LoadIndexes reads a lake's persisted discovery indexes from dir (written
// by SaveIndexes) for injection into a Reclaimer via UseIndexes.
func LoadIndexes(dir string) (*IndexSet, error) { return index.LoadIndexSetDir(dir) }

// SaveIndexes persists a session's discovery indexes under dir, building
// the ones its configuration engages that are not built yet: dict.bin and
// inverted.bin. The MinHash-LSH first stage is never persisted; a session
// that engages it builds it on demand.
func SaveIndexes(dir string, r *Reclaimer) error { return r.BuildIndexes().SaveDir(dir) }

// MineKey searches for a minimal key of t up to maxArity columns, returning
// key column indices or nil.
func MineKey(t *Table, maxArity int) []int { return table.MineKey(t, maxArity) }

// EIS computes the error-aware instance similarity between a source and a
// possible reclaimed table.
func EIS(src, reclaimed *Table) float64 { return metrics.EIS(src, reclaimed) }

// Evaluate computes the full metric report for a reclamation.
func Evaluate(src, reclaimed *Table) Report { return metrics.Evaluate(src, reclaimed) }
