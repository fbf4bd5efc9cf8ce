package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gent/internal/discovery"
	"gent/internal/embed"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// Reclaimer is a reusable reclamation session over one lake — the v3,
// epoch-versioned session, and the only way the pipeline runs (the one-shot
// ReclaimContext is a session used once). It builds each substrate at most
// once per lake epoch — lazily, on the first query that needs it — and
// serves every query at that epoch from the shared copy.
//
// The session tracks the lake: when lake.Apply publishes a new epoch, the
// next query catches the substrates up incrementally (index.WithDelta over
// the snapshot diff — add/remove postings and sketch deltas, no corpus
// rescan), falling back to a full rebuild only when no maintainable
// ancestor substrate exists. Queries are pinned RCU-style: each one resolves
// the current epoch state once at entry and runs discovery, traversal and
// integration against that immutable snapshot and its substrates, so
// in-flight queries are never torn by concurrent mutations — they complete
// on the epoch they started on.
//
// A Reclaimer is safe for concurrent use, including concurrently with lake
// mutations. Prebuilt or persisted indexes (index.LoadIndexSetDir) can be
// injected with UseIndexes before the first query of any epoch.
type Reclaimer struct {
	lake *lake.Lake
	cfg  Config

	// mu serializes epoch-state transitions (catch-up and injection); the
	// per-query fast path is one atomic load plus a snapshot-pointer compare.
	mu  sync.Mutex
	cur atomic.Pointer[epochState]
}

// maxCatchUpChain bounds how many not-yet-materialized epoch states a
// substrate delta may span (the snapshot diff bridges any gap in one step;
// the bound only caps how much history the chain pins in memory before a
// full rebuild is preferred).
const maxCatchUpChain = 8

// epochState is the session's view of one lake epoch: the pinned snapshot
// plus the substrates built, maintained or injected for it. Substrates are
// still lazy per epoch — built on the first query that needs them,
// incrementally when an ancestor state has a maintainable copy.
type epochState struct {
	snap *lake.Snapshot
	// shards is the session's Config.IndexShards, captured at state creation.
	shards int
	// prev links toward the ancestor states substrate catch-up derives from;
	// cleared once both substrates are resolved (or at chain-trim time) so
	// old snapshots do not accumulate.
	prev atomic.Pointer[epochState]

	// used flips (under Reclaimer.mu, via acquire) when a query claims this
	// state — the point after which injection would mix substrates across
	// queries of one epoch and is refused with ErrSessionStarted.
	used atomic.Bool

	invSlot slot[index.Inverted]
	lshSlot slot[index.MinHashLSH]
	semSlot slot[index.CosineLSH]
	// semEnabled is captured from the session's default discovery strategy at
	// state creation: only then do chain-trim and prev-release wait for the
	// semantic substrate (a syntactic session must not pin ancestors for a
	// substrate it will never build).
	semEnabled bool
}

// NewReclaimer creates a session over l with cfg as the default
// configuration. No indexing happens until the first query (or BuildIndexes).
func NewReclaimer(l *lake.Lake, cfg Config) *Reclaimer {
	return &Reclaimer{lake: l, cfg: cfg}
}

// Lake returns the session's lake.
func (r *Reclaimer) Lake() *lake.Lake { return r.lake }

// Config returns the session's default configuration.
func (r *Reclaimer) Config() Config { return r.cfg }

// state resolves the session's state for the lake's current epoch, creating
// (and chaining) a fresh one when the lake has moved on. The fast path — the
// lake hasn't moved — is two atomic loads.
func (r *Reclaimer) state() *epochState {
	ls := r.lake.Snapshot()
	if cur := r.cur.Load(); cur != nil && cur.snap == ls {
		return cur
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateLocked()
}

// stateLocked is state's slow path; r.mu must be held.
func (r *Reclaimer) stateLocked() *epochState {
	ls := r.lake.Snapshot()
	cur := r.cur.Load()
	if cur != nil && cur.snap == ls {
		return cur
	}
	ns := &epochState{snap: ls, shards: r.cfg.IndexShards, semEnabled: r.semEnabled()}
	ns.prev.Store(cur)
	trimChain(ns)
	r.cur.Store(ns)
	return ns
}

// semEnabled reports whether the session's default configuration engages the
// semantic substrate.
func (r *Reclaimer) semEnabled() bool {
	return r.cfg.Discovery.Strategy != discovery.StrategySyntactic
}

// acquire resolves and *claims* the epoch state a query will run against.
// The first claim of each state takes r.mu to flip used, so it is atomic
// against UseIndexes: either the injection lands first (and re-resolving
// under the lock returns the injected state, which this query then serves)
// or the claim lands first (and the injection is refused with
// ErrSessionStarted) — a query and an injection can never split one epoch
// across two substrate sets. After the first claim, acquire is the same
// lock-free fast path as state.
func (r *Reclaimer) acquire() *epochState {
	st := r.state()
	if st.used.Load() {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st = r.stateLocked()
	st.used.Store(true)
	return st
}

// trimChain cuts the ancestor chain after maxCatchUpChain hops, or right
// after the first state that already has every substrate built (nothing
// older can contribute anything newer states need).
func trimChain(head *epochState) {
	n := 0
	for s := head; s != nil; s = s.prev.Load() {
		n++
		if n > maxCatchUpChain || (s != head && s.substratesDone()) {
			s.prev.Store(nil)
			return
		}
	}
}

// substratesDone reports whether every substrate this session maintains is
// materialized on s — the point at which older ancestors have nothing left
// to contribute.
func (s *epochState) substratesDone() bool {
	return s.invSlot.ptr.Load() != nil && s.lshSlot.ptr.Load() != nil &&
		(!s.semEnabled || s.semSlot.ptr.Load() != nil)
}

// dropPrevIfDone releases the ancestor chain once every maintained substrate
// exists: nothing left to catch up from, so the old snapshots can be
// collected.
func (s *epochState) dropPrevIfDone() {
	if s.substratesDone() {
		s.prev.Store(nil)
	}
}

// slot is one substrate of an epoch state, lazy per epoch: ptr is published
// by the first resolve that needs it — or up front by UseIndexes, which the
// lazy path then finds already there.
type slot[T any] struct {
	once sync.Once
	ptr  atomic.Pointer[T]
}

// resolve returns the substrate in s's slot (of picks the slot, on s and on
// its ancestors), materializing it on first use: an injected copy as is, else
// delta from the nearest ancestor that has one, else — no ancestor, or delta
// returned nil because nothing table-level bridges the two snapshots — a
// fresh build over the pinned snapshot.
func resolve[T any](s *epochState, of func(*epochState) *slot[T],
	delta func(base *T, old, new *lake.Snapshot) *T, build func() *T) *T {
	sl := of(s)
	sl.once.Do(func() {
		if sl.ptr.Load() != nil {
			return
		}
		for a := s.prev.Load(); a != nil; a = a.prev.Load() {
			base := of(a).ptr.Load()
			if base == nil {
				continue
			}
			if nix := delta(base, a.snap, s.snap); nix != nil {
				sl.ptr.Store(nix)
				return
			}
			break // unmaintainable from here: rebuild
		}
		sl.ptr.Store(build())
	})
	s.dropPrevIfDone()
	return sl.ptr.Load()
}

// inverted returns the state's exact-overlap substrate.
func (s *epochState) inverted() *index.Inverted {
	return resolve(s, func(e *epochState) *slot[index.Inverted] { return &e.invSlot },
		func(base *index.Inverted, old, new *lake.Snapshot) *index.Inverted {
			return deltaVia(base.Dict(), base.WithDelta, old, new)
		},
		func() *index.Inverted { return index.BuildInvertedSharded(s.snap, s.shards) })
}

// lsh returns the state's MinHash-LSH first stage.
func (s *epochState) lsh() *index.MinHashLSH {
	return resolve(s, func(e *epochState) *slot[index.MinHashLSH] { return &e.lshSlot },
		func(base *index.MinHashLSH, old, new *lake.Snapshot) *index.MinHashLSH {
			return deltaVia(base.Dict(), base.WithDelta, old, new)
		},
		func() *index.MinHashLSH { return index.BuildMinHashLSH(s.snap) })
}

// semantic returns the state's cosine-LSH substrate; emb is the (resolved)
// embedder a fresh build would use. The substrate is built once per state
// under the first caller's embedder — discovery falls back to a per-query
// fresh build when a later query's embedder fingerprint differs. Its vectors
// are not ID-keyed, so any dictionary will do and only the snapshot diff
// gates maintainability (WithDelta itself refuses when the embedder is
// absent); the dictionary is rebound so the maintained index persists under
// the current pairing.
func (s *epochState) semantic(emb embed.Embedder) *index.CosineLSH {
	return resolve(s, func(e *epochState) *slot[index.CosineLSH] { return &e.semSlot },
		func(base *index.CosineLSH, old, new *lake.Snapshot) *index.CosineLSH {
			nix := deltaVia(new.Dict(), base.WithDelta, old, new)
			if nix != nil {
				nix.RebindDict(new.Dict())
			}
			return nix
		},
		func() *index.CosineLSH { return index.BuildCosineLSH(s.snap, emb) })
}

// deltaVia catches a substrate keyed under dict and built at the old snapshot
// up to new through its withDelta, fed the interned-form delta bridging the
// two. It returns nil when no table-level delta applies: the snapshot diff
// refuses (dictionary adoption or an in-place edit in between), or the
// substrate is not keyed under the new snapshot's dictionary (an injected LSH
// index sketched under a foreign dictionary, which must not have
// current-dictionary IDs mixed into it).
func deltaVia[T any](dict *table.Dict, withDelta func(added, removed []*table.Interned) *T,
	old, new *lake.Snapshot) *T {
	at, rt, ok := lake.Diff(old, new)
	if !ok || dict != new.Dict() {
		return nil
	}
	return withDelta(internForms(new, at), internForms(old, rt))
}

// internForms resolves tables to their interned forms under the snapshot
// they belong to (the forms a substrate over that snapshot was built from).
func internForms(snap *lake.Snapshot, tables []*table.Table) []*table.Interned {
	if len(tables) == 0 {
		return nil
	}
	out := make([]*table.Interned, len(tables))
	for i, t := range tables {
		out[i] = snap.Interned(t.Name)
	}
	return out
}

// needsFirstStage reports whether opts engage the LSH retriever on snap.
func needsFirstStage(snap *lake.Snapshot, opts discovery.Options) bool {
	return opts.FirstStageTopK > 0 && snap.Len() > opts.FirstStageTopK
}

// indexSet assembles the substrates one query needs at this state, building
// missing ones. The semantic substrate is attached for non-syntactic
// strategies; discovery itself verifies the embedder fingerprint and falls
// back to a per-query fresh build on mismatch.
func (s *epochState) indexSet(opts discovery.Options) *index.IndexSet {
	ix := &index.IndexSet{Inverted: s.inverted()}
	if needsFirstStage(s.snap, opts) {
		ix.LSH = s.lsh()
	}
	if opts.Strategy != discovery.StrategySyntactic {
		ix.Semantic = s.semantic(embed.Resolve(opts.Embedder))
	}
	return ix
}

// UseIndexes injects prebuilt or persisted substrates for the lake's
// current epoch. Nil members of ix are still built lazily. When ix carries a
// value dictionary (a persisted set), the lake adopts it before interning
// anything, so the persisted IDs keep meaning the same values; a
// lake.ErrDictMismatch from that adoption means the lake holds values the
// persisted dictionary has never seen — the indexes would silently miss
// them — and the caller should rebuild instead (the cmd/gent -index-dir
// rebuild-with-warning path). A dictionary-less set whose inverted index is
// keyed under any dictionary but the lake's own is refused with the same
// error: its IDs mean nothing here.
//
// Ordering contract, relaxed from v2's one-shot rule: injection is allowed
// between epochs — before the first query of the epoch the lake is
// currently at. Once a substrate has been built or served at the current
// epoch, injection would silently mix substrates across that epoch's
// queries, so UseIndexes returns ErrSessionStarted; after the lake moves to
// a new epoch, injection opens again. A set stamped with an epoch (as every
// set persisted by this release is) must match the lake's current epoch
// exactly, or UseIndexes refuses with ErrEpochMismatch — which wraps
// ErrSessionStarted, so v2 callers matching the old sentinel still catch
// it. In-flight queries pinned to older epochs are unaffected either way.
func (r *Reclaimer) UseIndexes(ix *index.IndexSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := r.lake.Snapshot()
	if cur := r.cur.Load(); cur != nil && cur.snap == ls && cur.used.Load() {
		return ErrSessionStarted
	}
	if ix == nil {
		return nil
	}
	if !ix.Epoch.IsZero() && ix.Epoch != ls.Epoch() {
		return fmt.Errorf("%w: indexes stamped %v, lake at %v", ErrEpochMismatch, ix.Epoch, ls.Epoch())
	}
	if ix.Dict != nil {
		if err := r.lake.AdoptDict(ix.Dict); err != nil {
			return err
		}
		// Adoption may publish a fresh snapshot bound to the adopted
		// dictionary; the injected state must pin that one.
		ls = r.lake.Snapshot() //lint:allow snappin AdoptDict republished the snapshot; re-pin deliberately
		// The lake's dictionary is authoritative after adoption (it may be a
		// superset the persisted one is a prefix of); rebind the substrates
		// so their probes resolve through it and discovery's interned fast
		// path recognizes the shared dictionary.
		d := ls.Dict()
		if ix.Inverted != nil {
			ix.Inverted.RebindDict(d)
		}
		if ix.LSH != nil {
			ix.LSH.RebindDict(d)
		}
		if ix.Semantic != nil {
			ix.Semantic.RebindDict(d)
		}
	} else if ix.Inverted != nil && ix.Inverted.Dict() != ls.Dict() {
		return fmt.Errorf("core: %w: inverted index is keyed under a different dictionary than the lake's",
			lake.ErrDictMismatch)
	}
	// A semantic substrate persisted under an external embedder loads without
	// one; reunite it with the session's embedder when the fingerprints match
	// so queries and deltas can use it (a mismatch leaves it detached, and
	// discovery rebuilds fresh per query rather than mixing vector spaces).
	if ix.Semantic != nil && !ix.Semantic.Embeddable() {
		ix.Semantic.AttachEmbedder(embed.Resolve(r.cfg.Discovery.Embedder))
	}
	// Publish the injected substrates into their slots right away: the lazy
	// resolve short-circuits onto them, and a later epoch's catch-up walk must
	// find an injected set to delta from rather than silently skip it in favor
	// of a full rebuild. Nil members stay lazy.
	ns := &epochState{snap: ls, shards: r.cfg.IndexShards, semEnabled: r.semEnabled()}
	ns.invSlot.ptr.Store(ix.Inverted)
	ns.lshSlot.ptr.Store(ix.LSH)
	ns.semSlot.ptr.Store(ix.Semantic)
	ns.prev.Store(r.cur.Load())
	trimChain(ns)
	r.cur.Store(ns)
	return nil
}

// BuildIndexes eagerly builds (or catches up) every substrate the session's
// configuration engages for the current epoch — concurrently, their lazy
// guards are independent — and returns them stamped with the epoch, e.g. to
// persist with IndexSet.SaveDir for later sessions over the same lake. The
// semantic substrate is included only when the session's default strategy is
// non-syntactic.
func (r *Reclaimer) BuildIndexes() *index.IndexSet {
	st := r.acquire()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.inverted()
	}()
	if st.semEnabled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.semantic(embed.Resolve(r.cfg.Discovery.Embedder))
		}()
	}
	st.lsh()
	wg.Wait()
	return &index.IndexSet{
		Inverted: st.invSlot.ptr.Load(),
		LSH:      st.lshSlot.ptr.Load(),
		Semantic: st.semSlot.ptr.Load(),
		Dict:     st.snap.Dict(),
		Epoch:    st.snap.Epoch(),
	}
}

// Warm eagerly builds the substrates the session's default configuration
// needs and returns the receiver.
func (r *Reclaimer) Warm() *Reclaimer { return r.WarmFor(r.cfg.Discovery) }

// WarmFor eagerly builds (or incrementally catches up) the substrates that
// queries with the given discovery options will need at the lake's current
// epoch.
func (r *Reclaimer) WarmFor(opts discovery.Options) *Reclaimer {
	st := r.acquire()
	st.inverted()
	if needsFirstStage(st.snap, opts) {
		st.lsh()
	}
	if opts.Strategy != discovery.StrategySyntactic {
		st.semantic(embed.Resolve(opts.Embedder))
	}
	return r
}

// CandidatesContext runs Table Discovery over the shared substrates, pinned
// to the lake's current epoch. A dead context fails before the lazy
// substrate build, so a canceled first query cannot pay for indexing; like
// every pipeline entry point, failures arrive as a *Error (here tagged
// PhaseDiscovery) wrapping the cause.
func (r *Reclaimer) CandidatesContext(ctx context.Context, src *table.Table, opts discovery.Options) ([]*discovery.Candidate, error) {
	cands, err := r.rawCandidates(ctx, r.acquire(), src, opts)
	if err != nil {
		return nil, phaseError(PhaseDiscovery, src.Name, Timing{}, err)
	}
	return cands, nil
}

// rawCandidates is CandidatesContext without the error wrapping, against one
// pinned epoch state — the pipeline calls it so its own phase tagging does
// not nest two *Errors.
func (r *Reclaimer) rawCandidates(ctx context.Context, st *epochState, src *table.Table, opts discovery.Options) ([]*discovery.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return discovery.DiscoverWithSnapContext(ctx, st.snap, st.indexSet(opts), src, opts)
}

// ReclaimContext runs the full Gen-T pipeline for one Source Table under
// per-call options layered over the session's default configuration.
// Cancellation aborts at the next phase boundary (or mid-phase preemption
// point) with a phase-tagged *Error wrapping ctx.Err().
func (r *Reclaimer) ReclaimContext(ctx context.Context, src *table.Table, opts ...Option) (*Result, error) {
	return r.reclaimConfigured(ctx, src, applyOptions(r.cfg, opts))
}

// ReclaimWithContext is ReclaimContext under a per-call configuration: cfg
// replaces the session default entirely (options then layer over cfg), for
// callers whose per-call configuration must not inherit anything from the
// session — ablations and parameter sweeps reuse the session's indexes,
// which depend only on the lake, across configurations.
func (r *Reclaimer) ReclaimWithContext(ctx context.Context, src *table.Table, cfg Config, opts ...Option) (*Result, error) {
	return r.reclaimConfigured(ctx, src, applyOptions(cfg, opts))
}

// reclaimConfigured runs the pipeline for one source under a fully-resolved
// per-call configuration — the shared kernel of every Reclaimer query path.
// The epoch state is resolved exactly once, before any phase: the whole
// query — discovery, traversal, integration — runs against that snapshot
// and its substrates, no matter what Apply does to the lake meanwhile.
func (r *Reclaimer) reclaimConfigured(ctx context.Context, src *table.Table, cfg Config) (*Result, error) {
	return r.reclaimPipeline(ctx, r.acquire(), src, cfg)
}

// SplitTraverseWorkers sizes each source's Matrix Traversal pool under an
// outer source-level fan-out of the given width, so nested parallelism does
// not oversubscribe: outer × returned ≈ GOMAXPROCS, floor 1.
func SplitTraverseWorkers(outerWorkers int) int {
	if outerWorkers < 1 {
		outerWorkers = 1
	}
	w := runtime.GOMAXPROCS(0) / outerWorkers
	if w < 1 {
		return 1
	}
	return w
}

// Batch APIs — ReclaimStream and ReclaimAllContext — live in stream.go.
