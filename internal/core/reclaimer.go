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
	"gent/internal/par"
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
// rescan) from the newest substrate of each kind the session holds, across
// any number of epochs, falling back to a full rebuild only when it holds
// none or no table-level delta bridges the two snapshots. Queries are pinned
// RCU-style: each one resolves the current epoch state once at entry and
// runs discovery, traversal and integration against that immutable snapshot
// and its substrates, so in-flight queries are never torn by concurrent
// mutations — they complete on the epoch they started on.
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
// states with their substrates, the newest substrate of each kind, and the
// configuration NewReclaimer was given. The substrates' shape (IndexShards)
// comes from that configuration alone, never from a handle's.
type session struct {
	lake *lake.Lake
	cfg  Config

	// mu serializes epoch-state transitions (a new epoch and injection); the
	// per-query fast path is one atomic load plus a snapshot-pointer compare.
	mu  sync.Mutex
	cur atomic.Pointer[epochState]

	// inv and lsh are the newest substrate of each kind the session has
	// resolved or been given: the base the next epoch's catch-up derives
	// from. Each pins at most one snapshot besides the current one.
	inv atomic.Pointer[base[index.Inverted]]
	lsh atomic.Pointer[base[index.MinHashLSH]]
}

// base is a substrate paired with the snapshot it is current at.
type base[T any] struct {
	snap *lake.Snapshot
	sub  *T
}

// epochState is the session's view of one lake epoch: the pinned snapshot
// plus the substrates built, maintained or injected for it. Substrates are
// lazy per epoch — built on the first query that needs them, incrementally
// when the session holds a base of that kind.
type epochState struct {
	snap *lake.Snapshot

	// used flips (under Reclaimer.mu, via acquire) when a query claims this
	// state — the point after which injection would mix substrates across
	// queries of one epoch and is refused with ErrSessionStarted.
	used atomic.Bool

	invSlot slot[index.Inverted]
	lshSlot slot[index.MinHashLSH]
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
// a fresh one when the lake has moved on. The fast path — the lake hasn't
// moved — is two atomic loads.
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
	if cur := r.cur.Load(); cur != nil && cur.snap == ls {
		return cur
	}
	ns := &epochState{snap: ls}
	r.cur.Store(ns)
	return ns
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

// slot is one substrate of an epoch state, lazy per epoch: ptr is published
// by the first resolve that needs it — or up front by UseIndexes, which the
// lazy path then finds already there.
type slot[T any] struct {
	once sync.Once
	ptr  atomic.Pointer[T]
}

// resolve returns the substrate in sl for snapshot snap, materializing it on
// first use: an injected copy as is, else withDelta from the newest base of
// its kind, else — no base yet, or no table-level delta bridges the two
// snapshots — a fresh build. It then offers the result as the newest base.
// The base only moves forward by epoch: a query pinned to an older epoch
// that resolves late derives from the newer base (lake.Diff works in either
// direction) and leaves it in place.
func resolve[T any](sl *slot[T], snap *lake.Snapshot, newest *atomic.Pointer[base[T]],
	withDelta func(base *T, added, removed []*table.Interned) *T, build func(*lake.Snapshot) *T) *T {
	sl.once.Do(func() {
		sub := sl.ptr.Load()
		if sub == nil {
			if b := newest.Load(); b != nil {
				sub = deltaVia(withDelta, b, snap)
			}
			if sub == nil {
				sub = build(snap)
			}
			sl.ptr.Store(sub)
		}
		for b := newest.Load(); b == nil || b.snap.Epoch().Seq < snap.Epoch().Seq; b = newest.Load() {
			if newest.CompareAndSwap(b, &base[T]{snap: snap, sub: sub}) {
				break
			}
		}
	})
	return sl.ptr.Load()
}

// inverted returns st's exact-overlap substrate.
func (s *session) inverted(st *epochState) *index.Inverted {
	return resolve(&st.invSlot, st.snap, &s.inv, (*index.Inverted).WithDelta,
		func(snap *lake.Snapshot) *index.Inverted { return index.BuildInvertedSharded(snap, s.cfg.IndexShards) })
}

// firstStage returns st's MinHash-LSH first stage.
func (s *session) firstStage(st *epochState) *index.MinHashLSH {
	return resolve(&st.lshSlot, st.snap, &s.lsh, (*index.MinHashLSH).WithDelta, index.BuildMinHashLSH)
}

// deltaVia catches b's substrate up (or back) to snap through withDelta, fed
// the interned-form delta bridging the two snapshots. It returns nil when no
// table-level delta applies: the snapshot diff refuses (an in-place edit in
// between). Every substrate in a slot is keyed under the lake's one
// dictionary — built from the snapshot, or bound to it by UseIndexes — so
// the delta's IDs mean what the substrate's do.
func deltaVia[T any](withDelta func(base *T, added, removed []*table.Interned) *T, b *base[T], snap *lake.Snapshot) *T {
	at, rt, ok := lake.Diff(b.snap, snap)
	if !ok {
		return nil
	}
	return withDelta(b.sub, internForms(snap, at), internForms(b.snap, rt))
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
// discovery configuration uses. Queries, Warm and BuildIndexes all read it.
func needsFirstStage(snap *lake.Snapshot, opts discovery.Options) bool {
	return opts.FirstStageTopK > 0 && snap.Len() > opts.FirstStageTopK
}

// indexSet assembles the substrates one query needs at st, building missing
// ones.
func (s *session) indexSet(st *epochState, opts discovery.Options) *index.IndexSet {
	ix := &index.IndexSet{Inverted: s.inverted(st)}
	if needsFirstStage(st.snap, opts) {
		ix.LSH = s.firstStage(st)
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
// set BuildIndexes returns is) must match the lake's current epoch exactly,
// or UseIndexes refuses with ErrEpochMismatch — which wraps
// ErrSessionStarted, so v2 callers matching the old sentinel still catch
// it. A set read by index.LoadIndexSetDir must match exactly even when its
// stamp is the zero Epoch: only the stamp says which tables and values its
// postings cover. The zero stamp stays a wildcard for substrates built in
// this process. In-flight queries pinned to older epochs are unaffected
// either way. Every refusal is boot.AdoptIndexes' rebuild-with-warning path:
// a persisted set is used exactly as saved or not at all.
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
	mismatch := fmt.Errorf("%w: indexes stamped %v, lake at %v", ErrEpochMismatch, ix.Epoch, ls.Epoch())
	if !ix.Epoch.IsZero() && ix.Epoch != ls.Epoch() {
		return mismatch
	}
	loaded := ix.Inverted != nil && ix.Inverted.Dict() == nil
	ix, err := ix.Bind(ls)
	if err != nil {
		return err
	}
	// Unstamped, a set read from disk could be current at any epoch. It is
	// refused after Bind, so a foreign dictionary is reported as such.
	if loaded && ix.Epoch != ls.Epoch() {
		return mismatch
	}
	// Publish the injected substrates into their slots, where the lazy
	// resolve finds them, and as the newest bases, so a later epoch derives
	// from them even if no query runs at this one. Nil members stay lazy.
	ns := &epochState{snap: ls}
	ns.invSlot.ptr.Store(ix.Inverted)
	ns.lshSlot.ptr.Store(ix.LSH)
	if ix.Inverted != nil {
		r.inv.Store(&base[index.Inverted]{snap: ls, sub: ix.Inverted})
	}
	if ix.LSH != nil {
		r.lsh.Store(&base[index.MinHashLSH]{snap: ls, sub: ix.LSH})
	}
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
	resolvers := []func(){func() { r.inverted(st) }}
	if needsFirstStage(st.snap, r.cfg.Discovery) {
		resolvers = append(resolvers, func() { r.firstStage(st) })
	}
	par.For(context.Background(), len(resolvers), len(resolvers), func(_, i int) { resolvers[i]() })
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
	return discovery.DiscoverWithSnapContext(ctx, st.snap, r.indexSet(st, opts), src, opts)
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
