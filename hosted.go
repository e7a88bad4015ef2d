package pbs

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/msethash"
	"pbs/internal/setstore"
)

// Logical accounting for hosted sets: each element is charged 8 bytes
// (its wire size) against tenant byte quotas, and a resident set carries a
// fixed overhead on top toward the resident-bytes watermark.
const (
	hostedElemBytes   = 8
	hostedSetOverhead = 256
)

// DefaultMergeThreshold is the segment-chain length a hosted set's chain
// never reaches: the write that would bring it there is a full segment of
// the set's snapshot instead of a delta, and its append prunes the chain.
const DefaultMergeThreshold = 4

// maxEvictWrites bounds the evicted sets whose segment writes are in flight
// at once; an eviction past it waits for a slot. Each holds its set's
// snapshot until the write commits, so resident memory can exceed
// MaxResidentBytes by that many sets while the disk catches up.
const maxEvictWrites = 8

// hostedStore manages the Server's sets, every one of them hosted:
// resident-bytes accounting with LRU eviction, cold loads from the segment
// store, and, on eviction, a segment of the writes the store lacks —
// written behind, off the evicting goroutine.
// It is the in-memory head over setstore's immutable segments.
type hostedStore struct {
	opt Options // server protocol options, defaults applied
	tow *estimator.ToW

	// store is the persistent segment layer; nil means memory-only
	// hosting, under which eviction is disabled (dropping a set would
	// lose it). Set once by EnableHosting before the server serves.
	store       *setstore.Store
	maxResident int64

	// mu guards the LRU list and each member's lruPos/charge fields. It may
	// be taken under a set's mu, never the other way round.
	mu  sync.Mutex
	lru *list.List // of *hostedSet; front = most recently used

	residentBytes atomic.Int64
	residentSets  atomic.Int64
	coldLoads     atomic.Int64
	evictions     atomic.Int64

	// Eviction writes in flight: slots bounds them (maxEvictWrites),
	// writing counts them, and writesClosed — set under writeMu by
	// flushAll before it waits — sends any later one inline.
	slots        chan struct{}
	writeMu      sync.Mutex
	writesClosed bool
	writing      sync.WaitGroup
}

func newHostedStore(o *Options, maxResident int64) (*hostedStore, error) {
	opt, err := o.withDefaultsValidated()
	if err != nil {
		return nil, err
	}
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	return &hostedStore{opt: opt, tow: tow, maxResident: maxResident, lru: list.New(),
		slots: make(chan struct{}, maxEvictWrites)}, nil
}

// sketchSeed is the seed stamped into persisted segment footers, checked
// on recovery so a data dir written under different protocol options is
// rejected instead of silently mis-estimating.
func (h *hostedStore) sketchSeed() uint64 { return h.opt.Seed ^ towSeedTweak }

// metaFor computes the full cumulative metadata of an element list.
func (h *hostedStore) metaFor(elems []uint64) setstore.Meta {
	mh := msethash.New(h.opt.Seed ^ verifySeedTweak)
	mh.AddSet(elems)
	d := mh.Sum()
	return setstore.Meta{
		Count:      uint64(len(elems)),
		SketchSeed: h.sketchSeed(),
		Sketch:     h.tow.Sketch(elems),
		Digest:     d.Bytes(),
	}
}

// hostedSet is one named set under hostedStore management, and the value
// the Server's registry holds, so sessions are served from it directly:
// resident, sessions get a materialized sharedSet; cold, they get a lazy
// view that answers estimates from the persisted sketch/digest and pages
// elements in only for a real delta round. Without a DataDir it is
// memory-only and never evicted.
type hostedSet struct {
	h    *hostedStore
	name string

	mu   sync.Mutex
	meta setstore.Meta // cumulative; kept current on every update
	// snap holds the elements; nil means cold (evicted). It is built once
	// per Host and once per cold load, written only through Apply, and
	// shared by every view handed out until the next write — so the
	// partitions and fold tables sessions cached on it carry across a
	// HostedUpdate.
	snap *core.Snapshot
	view *sharedSet // cached until mutation or demotion invalidates it
	// saved marks the snapshot the store holds: set by a cold load and by
	// every committed segment write, the zero Mark until the first. The
	// writes not yet on disk are snap.Since(saved).
	saved core.Mark
	// pending is the eviction write in flight, nil when none. While it is
	// set the set is cold, or was taken back from it by a sync's cold load,
	// and no update lands (update waits it out), so the snapshot is the
	// write's own.
	pending *segmentWrite
	// firstFlush is closed once the Host that built the set has written its
	// first full segment, or failed to; nil for a recovered set. A Host
	// replacing the set waits on it, so full segments land in the order
	// the registry swapped the sets in.
	firstFlush chan struct{}

	// lruPos, charge and dropped (the set left the registry, never to be
	// admitted to the LRU again) are guarded by h.mu, not mu.
	lruPos  *list.Element
	charge  int64
	dropped bool
}

// logicalBytes is the tenant-quota charge of this set.
func (hs *hostedSet) logicalBytes() int64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hostedElemBytes * int64(hs.meta.Count)
}

// residentCharge is the set's charge against MaxResidentBytes.
func (hs *hostedSet) residentCharge() int64 { return hostedSetOverhead + hs.logicalBytes() }

// host builds a new resident hosted set from elems — validated by the
// caller (checkElems), duplicates allowed and dropped here. The caller
// registers it (quota checks), then flushes its first full segment when the
// disk layer is enabled and enters it into the resident accounting.
func (h *hostedStore) host(name string, elems []uint64) (*hostedSet, error) {
	snap, err := core.NewValidatedSnapshot(sortedUnique(elems), h.opt.coreConfig())
	if err != nil {
		return nil, err
	}
	return &hostedSet{h: h, name: name, snap: snap, meta: h.metaFor(snap.Elements()), firstFlush: make(chan struct{})}, nil
}

// recover builds a cold hosted set from the newest persisted segment
// footer — a tail-only read, no elements touched.
func (h *hostedStore) recover(name string) (*hostedSet, error) {
	meta, err := h.store.Meta(name)
	if err != nil {
		return nil, err
	}
	if meta.SketchSeed != h.sketchSeed() {
		return nil, fmt.Errorf("pbs: set %q persisted under sketch seed %#x, server uses %#x", name, meta.SketchSeed, h.sketchSeed())
	}
	if len(meta.Sketch) != h.tow.L() {
		return nil, fmt.Errorf("pbs: set %q persisted with %d-lane sketch, server uses %d", name, len(meta.Sketch), h.tow.L())
	}
	if _, ok := msethash.DigestFromBytes(meta.Digest); !ok {
		return nil, fmt.Errorf("pbs: set %q has a malformed persisted digest", name)
	}
	return &hostedSet{h: h, name: name, meta: meta}, nil
}

// sharedView returns the view a new session reconciles against.
func (hs *hostedSet) sharedView() *sharedSet {
	hs.mu.Lock()
	if hs.view == nil {
		// Either view answers estimates and verification from the
		// incrementally maintained sketch and digest, never from a pass over
		// the elements; a cold one pages the elements in only for a round.
		v := &sharedSet{opt: hs.h.opt, snap: hs.snap, tow: hs.h.tow}
		if hs.snap == nil {
			v.loadSnap, v.count = hs.loadSnapshot, int(hs.meta.Count)
		}
		hs.view = v.preset(slices.Clone(hs.meta.Sketch), hs.digestLocked())
	}
	v, resident := hs.view, hs.snap != nil
	hs.mu.Unlock()
	if resident {
		hs.h.touch(hs)
	}
	return v
}

func (hs *hostedSet) digestLocked() msethash.Digest {
	d, _ := msethash.DigestFromBytes(hs.meta.Digest)
	return d
}

// materializeLocked pages a cold set's elements in from the segment store
// and adopts them as the snapshot — the one place a hosted set's elements
// are re-read. It first waits out an eviction write of the set still in
// flight, which either commits (the load then reads it) or fails and
// leaves the set resident. A no-op while the snapshot is held. Requires
// hs.mu, which it may release while it waits.
func (hs *hostedSet) materializeLocked() error {
	hs.awaitWriteLocked()
	if hs.snap != nil {
		return nil
	}
	if hs.h.store == nil {
		return fmt.Errorf("pbs: hosted set %q has no elements and no store", hs.name)
	}
	elems, meta, err := hs.h.store.Load(hs.name)
	if err != nil {
		return err
	}
	// Load's replay is strictly increasing, so its ends bound every element:
	// these two checks are NewSnapshot's validation, without its copy.
	bits := hs.h.opt.SigBits
	if n := len(elems); n > 0 && (elems[0] == 0 || elems[n-1]&^sigMaskFor(bits) != 0) {
		bad := elems[n-1]
		if elems[0] == 0 {
			bad = 0
		}
		return fmt.Errorf("pbs: hosted set %q: element %#x outside %d-bit universe (0 excluded)", hs.name, bad, bits)
	}
	snap, err := core.NewValidatedSnapshot(elems, hs.h.opt.coreConfig())
	if err != nil {
		return fmt.Errorf("pbs: hosted set %q: %w", hs.name, err)
	}
	hs.snap, hs.meta, hs.saved = snap, meta, snap.Mark()
	hs.h.coldLoads.Add(1)
	return nil
}

// awaitWriteLocked returns once no eviction write of the set is in flight,
// releasing hs.mu while it waits. Requires hs.mu.
func (hs *hostedSet) awaitWriteLocked() {
	for hs.pending != nil {
		done := hs.pending.done
		hs.mu.Unlock()
		<-done
		hs.mu.Lock()
	}
}

// loadSnapshot is the lazy view's cold-load path: page the elements in and
// promote the set to resident. A set whose eviction write is still in
// flight takes the write's snapshot back instead, so a sync never waits on
// the disk. Runs at most once per lazy view (sharedSet.snapOnce).
func (hs *hostedSet) loadSnapshot() (*core.Snapshot, error) {
	hs.mu.Lock()
	wasCold := hs.snap == nil
	var err error
	if wasCold && hs.pending != nil {
		hs.snap = hs.pending.snap
		hs.h.coldLoads.Add(1)
	} else {
		err = hs.materializeLocked()
	}
	snap := hs.snap
	hs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if wasCold {
		hs.h.noteResident(hs, hs.residentCharge())
	}
	return snap, nil
}

// update applies adds and removes to the set — adds first, so an element in
// both ends absent. The batch is netted against the snapshot's membership
// and handed to Snapshot.Apply, whose log is the record of the writes the
// next segment carries, and the cumulative sketch/digest/count are
// maintained incrementally (the property that lets the set keep answering
// estimates after eviction). Once the snapshot has taken a write, netting
// a batch costs O(|S|), not O(batch): Snapshot.Contains flattens the
// successor's write log into a fresh copy of the set (ROADMAP 14(a) is the
// fix). add must have passed checkElems: Apply trusts its caller. A cold
// set is paged in, and an eviction write in flight is waited out first;
// the caller settles its residency afterwards (noteResident).
func (hs *hostedSet) update(add, remove []uint64) error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if err := hs.materializeLocked(); err != nil {
		return err
	}
	remove = sortedUnique(remove)
	add = slices.DeleteFunc(sortedUnique(add), func(x uint64) bool {
		_, cancelled := slices.BinarySearch(remove, x)
		return cancelled || hs.snap.Contains(x)
	})
	remove = slices.DeleteFunc(remove, func(x uint64) bool { return !hs.snap.Contains(x) })
	if len(add) == 0 && len(remove) == 0 {
		return nil
	}
	mh := msethash.FromDigest(hs.h.opt.Seed^verifySeedTweak, hs.digestLocked())
	for _, x := range add {
		hs.h.tow.Add(hs.meta.Sketch, x)
		mh.Add(x)
	}
	for _, x := range remove {
		hs.h.tow.Remove(hs.meta.Sketch, x)
		mh.Remove(x)
	}
	d := mh.Sum()
	hs.meta.Digest = d.Bytes()
	hs.snap = hs.snap.Apply(add, remove)
	hs.meta.Count = uint64(hs.snap.Len())
	hs.view = nil // next session sees the mutated set
	return nil
}

// sortedUnique returns a sorted, duplicate-free copy of xs.
func sortedUnique(xs []uint64) []uint64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// segmentWrite is the segment that brings the store up to a snapshot: a
// delta of the snapshot's net writes since the one the store holds, or a
// full segment of it — the set's first, one after a re-base left no net to
// read, or one that compacts its chain before it reaches
// DefaultMergeThreshold — either carrying the cumulative metadata.
type segmentWrite struct {
	full       bool
	snap       *core.Snapshot
	adds, dels []uint64 // snap's net writes, for a delta
	meta       setstore.Meta
	done       chan struct{} // closed when an eviction write settles
}

// takeWriteLocked returns the write that brings the store up to the
// snapshot, or nil when the writes since the last one cancelled out.
// Requires hs.mu and a resident set.
func (hs *hostedSet) takeWriteLocked() *segmentWrite {
	adds, dels, ok := hs.snap.Since(hs.saved)
	if ok && len(adds) == 0 && len(dels) == 0 {
		return nil
	}
	return &segmentWrite{full: !ok || hs.h.store.FullDue(hs.name), snap: hs.snap, adds: adds, dels: dels, meta: hs.meta}
}

// commit writes w to the store.
func (w *segmentWrite) commit(store *setstore.Store, name string) error {
	if w.full {
		return store.AppendFull(name, w.snap.Elements(), w.meta)
	}
	return store.AppendDelta(name, w.adds, w.dels, w.meta)
}

// flush writes what the store lacks of a resident set without demoting it
// (Host's first segment, shutdown), once any eviction write of the set in
// flight has settled. A set with nothing unwritten — one that only
// answered syncs — writes nothing; a failed write leaves saved where it
// was, so the next one carries its writes too. A no-op for memory-only
// hosting and for a cold set.
func (hs *hostedSet) flush() error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.awaitWriteLocked()
	if hs.h.store == nil || hs.snap == nil {
		return nil
	}
	w := hs.takeWriteLocked()
	if w == nil {
		return nil
	}
	err := w.commit(hs.h.store, hs.name)
	if err == nil {
		hs.saved = w.snap.Mark()
	}
	return err
}

// demote evicts a resident set: drop the elements and the cached view,
// and hand the snapshot, if the store lacks some of it, to an eviction
// write that runs behind (writeBehind). Sessions holding the old view keep
// their snapshot; new sessions get a lazy (estimate-only) view, whose cold
// load takes the snapshot back from the write while it runs. A set taken
// back so is demoted again without a second write: it has had no update
// since (update waits the write out), so the write in flight is already
// the one it needs. If the write fails the set comes back resident with
// the snapshot — dropping unwritten data would lose it.
func (hs *hostedSet) demote() {
	hs.mu.Lock()
	if hs.snap == nil || hs.h.store == nil {
		hs.mu.Unlock()
		return
	}
	// A set that left the registry writes nothing more: a Host that
	// replaced it may already have written its own full segment, which a
	// later segment of this set would land on top of. A write taken before
	// the flag was set, that Host waits out (awaitWriteLocked).
	hs.h.mu.Lock()
	dropped := hs.dropped
	hs.h.mu.Unlock()
	var w *segmentWrite
	if !dropped && hs.pending == nil {
		w = hs.takeWriteLocked()
	}
	if w != nil {
		w.done = make(chan struct{})
		hs.pending = w
	}
	hs.snap = nil
	hs.view = nil
	hs.mu.Unlock()
	// A promote or update racing this demotion may have re-inserted the set
	// into the LRU between our removal and here; undo that so the resident
	// accounting never carries a cold set.
	hs.h.forget(hs, false)
	hs.h.evictions.Add(1)
	if w != nil {
		hs.h.writeBehind(hs, w)
	}
}

// writeBehind commits a victim's eviction write on a goroutine of its
// own, at most maxEvictWrites at once; once flushAll has begun it commits
// inline instead.
func (h *hostedStore) writeBehind(hs *hostedSet, w *segmentWrite) {
	h.writeMu.Lock()
	if h.writesClosed {
		h.writeMu.Unlock()
		hs.endEviction(w)
		return
	}
	h.writing.Add(1)
	h.writeMu.Unlock()
	h.slots <- struct{}{}
	go func() {
		defer h.writing.Done()
		hs.endEviction(w)
		<-h.slots
	}()
}

// endEviction runs an eviction write and settles it. On failure the set
// is resident again: the snapshot goes back, saved stays where it was, and
// the set re-enters the accounting without evicting anything (the next
// noteResident does).
func (hs *hostedSet) endEviction(w *segmentWrite) {
	err := w.commit(hs.h.store, hs.name)
	hs.mu.Lock()
	if err == nil {
		hs.saved = w.snap.Mark()
	} else {
		hs.snap, hs.view = w.snap, nil
	}
	hs.pending = nil
	hs.mu.Unlock()
	close(w.done)
	if err != nil {
		charge := hs.residentCharge()
		hs.h.mu.Lock()
		hs.h.admitLocked(hs, charge)
		hs.h.mu.Unlock()
	}
}

// admitLocked inserts a set into the resident accounting at the front of
// the LRU at charge, or settles the charge of a set already there; a
// dropped set is never admitted. Requires h.mu.
func (h *hostedStore) admitLocked(hs *hostedSet, charge int64) {
	switch {
	case hs.lruPos != nil:
		h.residentBytes.Add(charge - hs.charge)
	case !hs.dropped:
		hs.lruPos = h.lru.PushFront(hs)
		h.residentBytes.Add(charge)
		h.residentSets.Add(1)
	default:
		return
	}
	hs.charge = charge
}

// noteResident enters a set into the resident accounting at charge — read
// by the caller under hs.mu — or settles the charge of a set already
// there, and evicts least-recently-used sets while over the watermark.
// Eviction requires the disk layer; memory-only hosting never evicts.
// Which sets are evicted, and that they turn cold, is settled here, on the
// caller's goroutine; only their segment writes run behind.
func (h *hostedStore) noteResident(hs *hostedSet, charge int64) {
	var victims []*hostedSet
	h.mu.Lock()
	h.admitLocked(hs, charge)
	if h.maxResident > 0 && h.store != nil {
		for h.residentBytes.Load() > h.maxResident && h.lru.Len() > 1 {
			back := h.lru.Back()
			v := back.Value.(*hostedSet)
			if v == hs {
				// Never evict the set just touched — it is about to serve.
				break
			}
			h.lru.Remove(back)
			v.lruPos = nil
			h.residentBytes.Add(-v.charge)
			h.residentSets.Add(-1)
			victims = append(victims, v)
		}
	}
	h.mu.Unlock()
	for _, v := range victims {
		v.demote()
	}
}

// touch marks a resident set most-recently-used. A set mid-eviction
// (removed from the LRU but not yet demoted) is left alone — if it is
// still wanted it will cold-load and re-enter.
func (h *hostedStore) touch(hs *hostedSet) {
	h.mu.Lock()
	if hs.lruPos != nil {
		h.lru.MoveToFront(hs.lruPos)
	}
	h.mu.Unlock()
}

// forget removes a set from the resident accounting. With drop it is for
// good: the set left the registry (unregistered or replaced), and a write
// or cold load racing its removal does not re-admit it.
func (h *hostedStore) forget(hs *hostedSet, drop bool) {
	h.mu.Lock()
	hs.dropped = hs.dropped || drop
	if hs.lruPos != nil {
		h.lru.Remove(hs.lruPos)
		hs.lruPos = nil
		h.residentBytes.Add(-hs.charge)
		h.residentSets.Add(-1)
	}
	h.mu.Unlock()
}

// flushAll waits for every eviction write in flight, then writes what the
// store lacks of every resident set (shutdown). Evictions after it has
// begun write inline.
func (h *hostedStore) flushAll() error {
	if h.store == nil {
		return nil
	}
	h.writeMu.Lock()
	h.writesClosed = true
	h.writeMu.Unlock()
	h.writing.Wait()
	h.mu.Lock()
	sets := make([]*hostedSet, 0, h.lru.Len())
	for e := h.lru.Front(); e != nil; e = e.Next() {
		sets = append(sets, e.Value.(*hostedSet))
	}
	h.mu.Unlock()
	var firstErr error
	for _, hs := range sets {
		if err := hs.flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// EnableHosting opens the persistent segment store under
// ServerOptions.DataDir, registers every set already persisted there as a
// cold entry — a footer-only read per set, no elements touched. Call it
// once, before Serve and before the first Host or Register. It returns how
// many sets were recovered.
func (s *Server) EnableHosting() (int, error) {
	if s.hosted == nil {
		return 0, s.hostedErr
	}
	if s.opt.DataDir == "" {
		return 0, errors.New("pbs: EnableHosting requires ServerOptions.DataDir")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrServerClosed
	}
	if s.store != nil {
		s.mu.Unlock()
		return 0, errors.New("pbs: hosting already enabled")
	}
	store, err := setstore.Open(s.opt.DataDir, DefaultMergeThreshold)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.store = store
	s.hosted.store = store
	s.mu.Unlock()
	n := 0
	for _, name := range store.Names() {
		hs, err := s.hosted.recover(name)
		if err != nil {
			return n, err
		}
		if _, err := s.publish(name, hs, hs.logicalBytes(), false); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Host registers a hosted set built from elems — the one kind of set a
// Server serves: persisted as a full segment when hosting is enabled, and
// then evictable under MaxResidentBytes (the deployment shape for servers
// carrying far more named sets than fit in memory); memory-only otherwise.
// Re-hosting a name replaces its contents. Elements must be
// nonzero and fit in the protocol's SigBits (duplicates are dropped); an
// invalid one fails the call before anything changes, and tenant quotas are
// checked before anything is written.
func (s *Server) Host(name string, elems []uint64) error {
	if s.hosted == nil {
		return s.hostedErr
	}
	if name == "" {
		return errors.New("pbs: Host with an empty set name")
	}
	if err := checkElems(elems, s.hosted.opt.SigBits); err != nil {
		return err
	}
	hs, err := s.hosted.host(name, elems)
	if err != nil {
		return err
	}
	defer close(hs.firstFlush)
	old, err := s.publish(name, hs, hs.logicalBytes(), false)
	if err != nil {
		return err
	}
	if old != nil {
		s.hosted.forget(old, true)
		// Every segment of the replaced set lands before this set's full
		// segment, which replay then starts from: its own first one, which
		// the Host that built it may still be writing, and its eviction
		// write in flight.
		if old.firstFlush != nil {
			<-old.firstFlush
		}
		old.mu.Lock()
		old.awaitWriteLocked()
		old.mu.Unlock()
	}
	if err := hs.flush(); err != nil {
		s.Unregister(name)
		return err
	}
	s.hosted.noteResident(hs, hs.residentCharge()) // may evict others
	return nil
}

// HostedUpdate applies adds and removes to a hosted set, adds first (an
// element in both ends absent); elements already present, or already
// absent, are no-ops. An added element that is zero or wider than SigBits
// fails the call before anything changes. The cumulative sketch, digest,
// and count are maintained incrementally on this write path, which is what
// lets the set answer difference estimates even after eviction. Once a
// resident set has taken a write, each batch costs O(|S|), not O(batch):
// netting it against the set's membership flattens the snapshot (ROADMAP
// 14(a) is the fix).
// Changes are persisted when the set is next evicted (written off the
// evicting goroutine; a write to the set meanwhile waits for it to commit)
// or the server shuts down: as a delta segment of their net since the
// last segment, nothing where they cancelled out, or a full segment that
// replaces the chain, where one more delta would bring it to
// DefaultMergeThreshold or so many writes have landed since the last
// segment that the set's snapshot no longer holds their net.
// Growth is reserved against the tenant's byte quota before the set is
// touched. A set unregistered or replaced while the update runs stays
// gone: the call then fails as an unknown set.
func (s *Server) HostedUpdate(name string, add, remove []uint64) error {
	hs, ok := s.sets.Get(name)
	if !ok {
		return unknownSet(name)
	}
	if err := checkElems(add, s.hosted.opt.SigBits); err != nil {
		return err
	}
	if len(add) > 0 {
		// Worst-case reservation: every add is new. Settled to the actual
		// size below.
		if _, err := s.publish(name, hs, hs.logicalBytes()+hostedElemBytes*int64(len(add)), true); err != nil {
			return err
		}
	}
	err := hs.update(add, remove)
	bytes := hs.logicalBytes()
	if _, cerr := s.publish(name, hs, bytes, true); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	// The update may have paged a cold set in: enter it, or settle its
	// charge to the new size, and run the eviction loop.
	s.hosted.noteResident(hs, hostedSetOverhead+bytes)
	return nil
}
