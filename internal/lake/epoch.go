package lake

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"gent/internal/table"
)

// Epoch identifies one version of a lake's catalog. Epochs are produced by
// Apply: Seq increases by one per applied batch, and Chain fingerprints the
// whole mutation history (operations, table names and table contents), so two
// lakes that applied the same mutations from empty hold equal Epochs. The
// zero Epoch is the empty, never-mutated lake.
//
// Epochs order a lake's lifetime: substrates and persisted index sets are
// stamped with the Epoch they were built at, and a session can tell "same
// catalog" (equal Epoch) from "the lake has moved on" (anything else) with
// one comparison.
type Epoch struct {
	// Seq counts applied mutation batches.
	Seq uint64
	// Chain fingerprints the mutation history up to Seq.
	Chain uint64
}

// IsZero reports the empty-lake epoch.
func (e Epoch) IsZero() bool { return e == Epoch{} }

// String renders the epoch as "e<seq>:<chain>".
func (e Epoch) String() string { return fmt.Sprintf("e%d:%08x", e.Seq, e.Chain) }

// mutOp is a Mutation's operation.
type mutOp uint8

const (
	opPut mutOp = iota + 1
	opDrop
	opRename
)

// Mutation is one catalog edit for Apply: Put registers or replaces a table,
// Drop removes one, Rename moves one to a new name. Construct mutations with
// the Put, Drop and Rename helpers.
type Mutation struct {
	op      mutOp
	table   *table.Table // Put
	name    string       // Drop/Rename source
	newName string       // Rename target
}

// Put registers t, replacing any table of the same name (lakes are
// autonomous — tables change under us).
func Put(t *table.Table) Mutation { return Mutation{op: opPut, table: t} }

// Drop removes the named table. Dropping an absent name is a true no-op: it
// neither enters the history fingerprint nor (alone) produces a new epoch.
func Drop(name string) Mutation { return Mutation{op: opDrop, name: name} }

// Rename moves the table at oldName to newName, replacing any table already
// there. The renamed table is a shallow copy sharing rows with the original,
// so snapshots pinned before the rename are unaffected.
func Rename(oldName, newName string) Mutation {
	return Mutation{op: opRename, name: oldName, newName: newName}
}

// String describes the mutation for errors and logs.
func (m Mutation) String() string {
	switch m.op {
	case opPut:
		if m.table == nil {
			return "put(<nil>)"
		}
		return "put(" + m.table.Name + ")"
	case opDrop:
		return "drop(" + m.name + ")"
	case opRename:
		return "rename(" + m.name + " -> " + m.newName + ")"
	}
	return "invalid mutation"
}

// ErrBadMutation reports an Apply batch that was rejected as a whole; the
// lake is unchanged and no epoch was produced.
var ErrBadMutation = errors.New("lake: invalid mutation")

// Snapshot is one immutable version of a lake: the catalog at an Epoch plus
// the value dictionary and (lazily computed) interned forms every substrate
// built over this version shares. Snapshots are safe for unsynchronized
// concurrent use and never change once published — a query pinned to a
// snapshot sees exactly the tables that existed when it started, no matter
// what Apply does to the lake afterwards.
type Snapshot struct {
	epoch  Epoch
	names  []string // insertion order, deterministic iteration
	byName map[string]*table.Table
	// fps holds each table's content fingerprint as of its Put — what Diff
	// compares, so an in-place edit re-Put under the same pointer (the v2
	// invalidation idiom) is still seen as a change.
	fps map[string]uint64
	ist *internState
}

// Epoch returns the snapshot's epoch.
func (s *Snapshot) Epoch() Epoch { return s.epoch }

// Get returns the named table, or nil.
func (s *Snapshot) Get(name string) *table.Table { return s.byName[name] }

// Len returns the number of tables.
func (s *Snapshot) Len() int { return len(s.names) }

// Names returns table names in insertion order.
func (s *Snapshot) Names() []string { return append([]string(nil), s.names...) }

// Tables returns all tables in insertion order.
func (s *Snapshot) Tables() []*table.Table {
	out := make([]*table.Table, 0, len(s.names))
	for _, n := range s.names {
		out = append(out, s.byName[n])
	}
	return out
}

// Dict returns the value dictionary this snapshot's interned forms map
// through. The dictionary is shared across snapshots (append-only: IDs keep
// meaning the same values for the life of the lake).
func (s *Snapshot) Dict() *table.Dict { return s.ist.dict }

// Fingerprint returns the named table's content fingerprint as recorded at
// this epoch (the same value table.Fingerprint computes, cached when the
// table entered the catalog), or 0 when the table is absent. Servers key
// caches and conditional responses off it without rescanning the rows.
func (s *Snapshot) Fingerprint(name string) uint64 { return s.fps[name] }

// EnsureInterned interns every table of the snapshot that has no cached
// interned form yet. It is idempotent and safe for concurrent use; substrate
// builds call it once up front so per-table scans afterwards are cheap cache
// hits.
func (s *Snapshot) EnsureInterned() { s.ist.ensure(s.names, s.byName, s.fps) }

// Interned returns the interned form of the named table, interning any
// not-yet-interned snapshot tables first; nil when the table is absent.
func (s *Snapshot) Interned(name string) *table.Interned {
	t := s.byName[name]
	if t == nil {
		return nil
	}
	return s.ist.internedOf(t, s.names, s.byName, s.fps)
}

// Subset returns a snapshot over the named subset of s's tables that shares
// s's dictionary and interned forms — the pool shape first-stage retrieval
// hands to Set Similarity, where IDs must keep meaning the same values as in
// the full lake's index. Unknown and duplicate names are skipped. The subset
// carries s's epoch: it is a view of this version, not a new one.
func (s *Snapshot) Subset(names []string) *Snapshot {
	p := &Snapshot{
		epoch:  s.epoch,
		byName: make(map[string]*table.Table, len(names)),
		ist:    s.ist,
	}
	p.fps = make(map[string]uint64, len(names))
	for _, n := range names {
		t := s.byName[n]
		if t == nil {
			continue
		}
		if _, dup := p.byName[n]; dup {
			continue
		}
		p.byName[n] = t
		p.names = append(p.names, n)
		p.fps[n] = s.fps[n]
	}
	return p
}

// Diff compares two snapshots of one lake lineage and returns the tables
// added (or replaced: the new version) and removed (or replaced: the old
// version) going from old to new, in deterministic name order. Change is
// judged by content fingerprint, not pointer identity: re-Putting the same
// table object after an in-place edit reads as a replacement. ok is false
// when no table-level delta can bridge the snapshots — they do not share a
// dictionary (the lake adopted one in between), or a table was edited in
// place under the same pointer, whose pre-edit form (the one substrates
// were built from) no longer exists to subtract.
func Diff(old, new *Snapshot) (added, removed []*table.Table, ok bool) {
	if old.ist != new.ist {
		return nil, nil, false
	}
	for _, n := range new.names {
		nt := new.byName[n]
		ot := old.byName[n]
		switch {
		case ot == nil:
			added = append(added, nt)
		case old.fps[n] == new.fps[n]:
			// Content unchanged (even if the pointer moved): nothing for a
			// substrate delta to do.
		case ot == nt:
			// Edited in place: the old contents are gone, so the removal
			// half of the delta cannot be constructed.
			return nil, nil, false
		default:
			added = append(added, nt)
			removed = append(removed, ot)
		}
	}
	for _, n := range old.names {
		if _, still := new.byName[n]; !still {
			removed = append(removed, old.byName[n])
		}
	}
	return added, removed, true
}

// Apply atomically applies a batch of mutations and returns the new epoch.
// The batch is validated first and applied all-or-nothing, in order (so a
// batch may Put a table and Rename it in one epoch); an invalid batch leaves
// the lake at its current epoch with an ErrBadMutation-wrapped cause.
//
// Apply publishes a fresh immutable Snapshot; queries already running stay
// pinned RCU-style to the snapshot they started on and are never torn. The
// value dictionary is untouched by drops — IDs are never reused or
// renumbered, dropped values simply become tombstones that keep their IDs —
// so substrates maintained across epochs keep meaning the same values.
func (l *Lake) Apply(ctx context.Context, muts ...Mutation) (Epoch, error) {
	if err := ctx.Err(); err != nil {
		return l.Epoch(), err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.snap.Load()
	// Validate against a names view before touching anything.
	for _, m := range muts {
		switch m.op {
		case opPut:
			if m.table == nil {
				return cur.epoch, fmt.Errorf("%w: %s: nil table", ErrBadMutation, m)
			}
			if m.table.Name == "" {
				return cur.epoch, fmt.Errorf("%w: %s: empty table name", ErrBadMutation, m)
			}
		case opDrop:
			if m.name == "" {
				return cur.epoch, fmt.Errorf("%w: %s: empty name", ErrBadMutation, m)
			}
		case opRename:
			if m.name == "" || m.newName == "" {
				return cur.epoch, fmt.Errorf("%w: %s: empty name", ErrBadMutation, m)
			}
		default:
			return cur.epoch, fmt.Errorf("%w: zero Mutation (use Put, Drop or Rename)", ErrBadMutation)
		}
	}

	names := append([]string(nil), cur.names...)
	byName := make(map[string]*table.Table, len(cur.byName)+len(muts))
	fps := make(map[string]uint64, len(cur.fps)+len(muts))
	for n, t := range cur.byName {
		byName[n] = t
	}
	for n, fp := range cur.fps {
		fps[n] = fp
	}
	put := func(t *table.Table) {
		if _, exists := byName[t.Name]; !exists {
			names = append(names, t.Name)
		}
		byName[t.Name] = t
	}
	drop := func(name string) {
		if _, ok := byName[name]; !ok {
			return
		}
		delete(byName, name)
		delete(fps, name)
		for i, n := range names {
			if n == name {
				names = append(names[:i], names[i+1:]...)
				break
			}
		}
	}
	// Only effective mutations enter the chain and justify an epoch: a Drop
	// of an absent name, a Rename onto itself, or a Put that changes neither
	// the stored pointer nor the content changes nothing, so it must not move
	// the epoch or perturb the history fingerprint. Rename retargets are
	// deferred until the whole batch has validated — a later mutation may
	// still reject it.
	effective := false
	chain := cur.epoch.Chain
	var retargets [][2]*table.Table
	// Same-pointer re-Puts after an in-place edit (the v2 invalidation
	// idiom) leave the cached interned form stale; those entries are
	// evicted once the batch lands.
	var evict []*table.Table
	for _, m := range muts {
		switch m.op {
		case opPut:
			fp := tableFingerprint(m.table)
			if prev, ok := byName[m.table.Name]; ok && prev == m.table && fps[m.table.Name] == fp {
				continue // identical pointer and content: true no-op
			} else if ok && prev == m.table {
				evict = append(evict, m.table)
			}
			put(m.table)
			fps[m.table.Name] = fp
			chain = chainMix(chain, byte(opPut), m.table.Name, fp)
			effective = true
		case opDrop:
			if _, ok := byName[m.name]; !ok {
				continue
			}
			drop(m.name)
			chain = chainMix(chain, byte(opDrop), m.name, 0)
			effective = true
		case opRename:
			t, ok := byName[m.name]
			if !ok {
				return cur.epoch, fmt.Errorf("%w: %s: no such table", ErrBadMutation, m)
			}
			if m.newName == m.name {
				continue
			}
			nt := *t
			nt.Name = m.newName
			fp := fps[m.name]
			drop(m.name)
			put(&nt)
			fps[m.newName] = fp
			// The renamed copy shares rows with the original, so its
			// interned form is the original's retargeted, not a re-intern.
			retargets = append(retargets, [2]*table.Table{t, &nt})
			chain = chainMix(chain, byte(opRename), m.name+"\x00"+m.newName, 0)
			effective = true
		}
	}
	if !effective {
		return cur.epoch, nil
	}
	cur.ist.retarget(retargets)
	ns := &Snapshot{
		epoch:  Epoch{Seq: cur.epoch.Seq + 1, Chain: chain},
		names:  names,
		byName: byName,
		fps:    fps,
		ist:    cur.ist,
	}
	l.snap.Store(ns)
	// Sweep interned forms of tables no longer in the catalog (plus the
	// same-pointer edits, which survive the liveness sweep). A pinned
	// snapshot that still needs one simply re-interns it — the dictionary is
	// append-only, so the re-interned form is identical.
	cur.ist.sweep(byName, evict)
	return ns.epoch, nil
}

// Epoch returns the lake's current epoch.
func (l *Lake) Epoch() Epoch { return l.snap.Load().epoch }

// Snapshot returns the lake's current immutable snapshot — one atomic load,
// no locks. Pin a query to the snapshot it starts on and every read is
// torn-free no matter how the lake is mutated concurrently.
func (l *Lake) Snapshot() *Snapshot { return l.snap.Load() }

// chainMix folds one mutation record into the running history fingerprint.
func chainMix(chain uint64, op byte, name string, content uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], chain)
	h.Write(b[:])
	h.Write([]byte{op})
	h.Write([]byte(name))
	binary.LittleEndian.PutUint64(b[:], content)
	h.Write(b[:])
	return h.Sum64()
}

// tableFingerprint hashes a table's schema and cell contents — the shared
// content identity, now owned by the table package so segment files can carry
// the same stamp the epoch chain is keyed on.
func tableFingerprint(t *table.Table) uint64 { return table.Fingerprint(t) }
