package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// Reclaimer is a handle on a reusable reclamation session over one lake —
// the v3, epoch-versioned session, and the only way the pipeline runs (the
// one-shot ReclaimContext is a session used once). A handle is the session
// plus the Config its queries run under; WithConfig derives another handle
// on the same session. The session builds each substrate at most once per
// lake epoch — lazily, on the first query that needs it — and serves every
// query at that epoch, through any handle, from the shared copy.
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
	*session
	// cfg is this handle's configuration; every query method reads it.
	cfg Config
}

// session is what every handle of one Reclaimer shares: the lake, the epoch
// states with their substrates, and the configuration NewReclaimer was given.
// The substrates' shape — IndexShards, and whether ancestor release waits for
// the LSH — comes from that configuration alone, never from a handle's.
type session struct {
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
	// cleared once every engaged substrate is resolved (or at chain-trim
	// time) so old snapshots do not accumulate.
	prev atomic.Pointer[epochState]

	// used flips (under Reclaimer.mu, via acquire) when a query claims this
	// state — the point after which injection would mix substrates across
	// queries of one epoch and is refused with ErrSessionStarted.
	used atomic.Bool

	invSlot slot[index.Inverted]
	lshSlot slot[index.MinHashLSH]
	// engagesLSH is needsFirstStage under the session's default
	// configuration, captured at state creation: chain-trim and prev-release
	// wait for the LSH only when it holds (a default session must not pin
	// ancestors for an LSH it never builds).
	engagesLSH bool
}

// NewReclaimer creates a session over l and returns a handle whose queries
// run under cfg. The session builds its substrates from cfg too: a handle
// from WithConfig shares them whatever its own IndexShards says. No indexing
// happens until the first query (or BuildIndexes).
func NewReclaimer(l *lake.Lake, cfg Config) *Reclaimer {
	return &Reclaimer{session: &session{lake: l, cfg: cfg}, cfg: cfg}
}

// WithConfig returns a handle on the same session whose queries run under
// cfg: it shares the lake, the epoch states and their substrates with r, so
// ablations and parameter sweeps reuse one session's indexes across
// configurations. r itself is unchanged.
func (r *Reclaimer) WithConfig(cfg Config) *Reclaimer {
	return &Reclaimer{session: r.session, cfg: cfg}
}

// Lake returns the session's lake.
func (r *Reclaimer) Lake() *lake.Lake { return r.lake }

// Config returns the configuration this handle's queries run under.
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
	ns := r.newState(ls)
	ns.prev.Store(cur)
	trimChain(ns)
	r.cur.Store(ns)
	return ns
}

// newState is a fresh, unresolved state for snapshot ls.
func (r *Reclaimer) newState(ls *lake.Snapshot) *epochState {
	sc := r.session.cfg
	return &epochState{snap: ls, shards: sc.IndexShards, engagesLSH: needsFirstStage(ls, sc.Discovery)}
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

// substratesDone reports whether every substrate this session engages is
// materialized on s — the point at which older ancestors have nothing left
// to contribute.
func (s *epochState) substratesDone() bool {
	return s.invSlot.ptr.Load() != nil && (!s.engagesLSH || s.lshSlot.ptr.Load() != nil)
}

// dropPrevIfDone releases the ancestor chain once every engaged substrate
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
			return deltaVia(base.WithDelta, old, new)
		},
		func() *index.Inverted { return index.BuildInvertedSharded(s.snap, s.shards) })
}

// lsh returns the state's MinHash-LSH first stage.
func (s *epochState) lsh() *index.MinHashLSH {
	return resolve(s, func(e *epochState) *slot[index.MinHashLSH] { return &e.lshSlot },
		func(base *index.MinHashLSH, old, new *lake.Snapshot) *index.MinHashLSH {
			return deltaVia(base.WithDelta, old, new)
		},
		func() *index.MinHashLSH { return index.BuildMinHashLSH(s.snap) })
}

// deltaVia catches a substrate built at the old snapshot up to new through
// its withDelta, fed the interned-form delta bridging the two. It returns
// nil when no table-level delta applies: the snapshot diff refuses (an
// in-place edit in between). Every substrate in a slot is keyed under the
// lake's one dictionary — built from the snapshot, or bound to it by
// UseIndexes — so the delta's IDs mean what the substrate's do.
func deltaVia[T any](withDelta func(added, removed []*table.Interned) *T, old, new *lake.Snapshot) *T {
	at, rt, ok := lake.Diff(old, new)
	if !ok {
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

// needsFirstStage reports whether opts engage the LSH retriever on snap —
// the one rule for which substrate beyond the always-needed inverted index a
// discovery configuration uses. Queries, Warm, BuildIndexes and the
// ancestor release all read it.
func needsFirstStage(snap *lake.Snapshot, opts discovery.Options) bool {
	return opts.FirstStageTopK > 0 && snap.Len() > opts.FirstStageTopK
}

// indexSet assembles the substrates one query needs at this state, building
// missing ones.
func (s *epochState) indexSet(opts discovery.Options) *index.IndexSet {
	ix := &index.IndexSet{Inverted: s.inverted()}
	if needsFirstStage(s.snap, opts) {
		ix.LSH = s.lsh()
	}
	return ix
}

// UseIndexes injects prebuilt or persisted substrates for the lake's
// current epoch. Nil members of ix are still built lazily. The set is bound
// to the lake's own dictionary first (IndexSet.Bind): a persisted set's
// inverted index must verify the dictionary prefix stamp it was saved under,
// and substrates built in this process must be keyed under the lake's
// dictionary itself. Either refusal is lake.ErrDictMismatch — the IDs would
// resolve to the wrong values — and the caller should rebuild instead.
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
// Both refusals are boot.AdoptIndexes' rebuild-with-warning path: a
// persisted set is used exactly as saved or not at all.
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
	ix, err := ix.Bind(ls)
	if err != nil {
		return err
	}
	// Publish the injected substrates into their slots right away: the lazy
	// resolve short-circuits onto them, and a later epoch's catch-up walk must
	// find an injected set to delta from rather than silently skip it in favor
	// of a full rebuild. Nil members stay lazy.
	ns := r.newState(ls)
	ns.invSlot.ptr.Store(ix.Inverted)
	ns.lshSlot.ptr.Store(ix.LSH)
	ns.prev.Store(r.cur.Load())
	trimChain(ns)
	r.cur.Store(ns)
	return nil
}

// BuildIndexes is Warm, returning the current epoch's substrates stamped
// with the epoch, e.g. to persist with IndexSet.SaveDir for later sessions
// over the same lake. The LSH is included only when the handle's
// configuration engages it (or an earlier query or injection already
// resolved it).
func (r *Reclaimer) BuildIndexes() *index.IndexSet {
	st := r.warm()
	return &index.IndexSet{
		Inverted: st.invSlot.ptr.Load(),
		LSH:      st.lshSlot.ptr.Load(),
		Dict:     st.snap.Dict(),
		Epoch:    st.snap.Epoch(),
	}
}

// Warm eagerly builds (or incrementally catches up) the substrates the
// handle's queries need at the lake's current epoch and returns the
// receiver.
func (r *Reclaimer) Warm() *Reclaimer {
	r.warm()
	return r
}

// warm resolves every substrate the handle's configuration engages at the
// lake's current epoch — concurrently, their lazy guards are independent —
// and returns the state.
func (r *Reclaimer) warm() *epochState {
	st := r.acquire()
	var wg sync.WaitGroup
	if needsFirstStage(st.snap, r.cfg.Discovery) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.lsh()
		}()
	}
	st.inverted()
	wg.Wait()
	return st
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
