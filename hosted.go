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

// DefaultMergeThreshold is the segment-chain length at which the store's
// background merger folds a hosted set's chain into one full segment.
const DefaultMergeThreshold = 4

// hostedStore manages the Server's hosted sets: resident-bytes accounting
// with LRU eviction, cold loads from the segment store, and flush of
// dirty state on eviction. It is the in-memory head over setstore's
// immutable segments.
type hostedStore struct {
	opt Options // server protocol options, defaults applied
	tow *estimator.ToW

	// store is the persistent segment layer; nil means memory-only
	// hosting, under which eviction is disabled (dropping a set would
	// lose it). Set once by EnableHosting before the server serves.
	store       *setstore.Store
	maxResident int64

	// mu guards the LRU list and each member's lruPos/charge fields.
	mu  sync.Mutex
	lru *list.List // of *hostedSet; front = most recently used

	residentBytes atomic.Int64
	residentSets  atomic.Int64
	coldLoads     atomic.Int64
	evictions     atomic.Int64
}

func newHostedStore(opt Options, maxResident int64) (*hostedStore, error) {
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	return &hostedStore{opt: opt, tow: tow, maxResident: maxResident, lru: list.New()}, nil
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

// hostedSet is one named set under hostedStore management. It implements
// setSource, so the Server's registry serves sessions from it directly:
// resident, sessions get a materialized sharedSet; cold, they get a lazy
// view that answers estimates from the persisted sketch/digest and pages
// elements in only for a real delta round.
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
	snap      *core.Snapshot
	view      *sharedSet          // cached until mutation or demotion invalidates it
	persisted bool                // at least one full segment on disk
	dirtyAdds map[uint64]struct{} // changes since the last persisted segment
	dirtyDels map[uint64]struct{}

	// lruPos and charge are guarded by h.mu (LRU bookkeeping), not mu.
	lruPos *list.Element
	charge int64
}

// logicalBytes is the tenant-quota charge of this set.
func (hs *hostedSet) logicalBytes() int64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hostedElemBytes * int64(hs.meta.Count)
}

func (hs *hostedSet) residentCharge() int64 {
	return hostedSetOverhead + hostedElemBytes*int64(hs.meta.Count)
}

// host builds a new resident hosted set from elems — validated by the
// caller (checkElems), duplicates allowed and dropped here. The caller
// registers it (quota checks) and then calls persist, which writes its
// first full segment when the disk layer is enabled.
func (h *hostedStore) host(name string, elems []uint64) (*hostedSet, error) {
	snap, err := core.NewSnapshot(sortedUnique(elems), h.opt.coreConfig())
	if err != nil {
		return nil, err
	}
	return &hostedSet{h: h, name: name, snap: snap, meta: h.metaFor(snap.Elements())}, nil
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
	return &hostedSet{h: h, name: name, meta: meta, persisted: true}, nil
}

// persist writes the initial full segment of a freshly hosted set and
// inserts it into the resident accounting (which may evict others).
func (hs *hostedSet) persist() error {
	if err := hs.flush(); err != nil {
		return err
	}
	hs.h.noteResident(hs)
	return nil
}

// sharedView implements setSource.
func (hs *hostedSet) sharedView() (*sharedSet, error) {
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
	return v, nil
}

// sessionOptions implements setSource: hosted sessions run under the
// server's protocol options.
func (hs *hostedSet) sessionOptions() Options { return hs.h.opt }

func (hs *hostedSet) digestLocked() msethash.Digest {
	d, _ := msethash.DigestFromBytes(hs.meta.Digest)
	return d
}

// materializeLocked pages a cold set's elements in from the segment store
// and validates them into the snapshot — the one place a hosted set's
// elements are re-read. A no-op while the snapshot is held. Requires hs.mu.
func (hs *hostedSet) materializeLocked() error {
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
	snap, err := core.NewSnapshot(elems, hs.h.opt.coreConfig())
	if err != nil {
		return fmt.Errorf("pbs: hosted set %q: %w", hs.name, err)
	}
	hs.snap, hs.meta = snap, meta
	hs.h.coldLoads.Add(1)
	return nil
}

// loadSnapshot is the lazy view's cold-load path: page the elements in and
// promote the set to resident. Runs at most once per lazy view
// (sharedSet.snapOnce).
func (hs *hostedSet) loadSnapshot() (*core.Snapshot, error) {
	hs.mu.Lock()
	wasCold := hs.snap == nil
	err := hs.materializeLocked()
	snap := hs.snap
	hs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if wasCold {
		hs.h.noteResident(hs)
	}
	return snap, nil
}

// update applies adds and removes to the set — adds first, so an element in
// both ends absent — in time proportional to the batch: the batch is netted
// against the snapshot's membership and handed to Snapshot.Apply, and the
// cumulative sketch/digest/count are maintained incrementally (the property
// that lets the set keep answering estimates after eviction). add must have
// passed checkElems: Apply trusts its caller. A cold set is paged in; the
// caller settles its residency afterwards (noteResident).
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
	if hs.dirtyAdds == nil {
		hs.dirtyAdds = make(map[uint64]struct{})
		hs.dirtyDels = make(map[uint64]struct{})
	}
	mh := msethash.FromDigest(hs.h.opt.Seed^verifySeedTweak, hs.digestLocked())
	for _, x := range add {
		hs.h.tow.Add(hs.meta.Sketch, x)
		mh.Add(x)
		if _, wasDel := hs.dirtyDels[x]; wasDel {
			delete(hs.dirtyDels, x)
		} else {
			hs.dirtyAdds[x] = struct{}{}
		}
	}
	for _, x := range remove {
		hs.h.tow.Remove(hs.meta.Sketch, x)
		mh.Remove(x)
		if _, wasAdd := hs.dirtyAdds[x]; wasAdd {
			delete(hs.dirtyAdds, x)
		} else {
			hs.dirtyDels[x] = struct{}{}
		}
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

// flushLocked persists the dirty state: the first flush is a full
// segment, later ones are deltas carrying the cumulative metadata, and a
// set with nothing dirty — one that only answered syncs — writes nothing.
// Requires hs.mu; a no-op for memory-only hosting and for a cold set, whose
// writes were flushed when it was evicted.
func (hs *hostedSet) flushLocked() error {
	if hs.h.store == nil || hs.snap == nil {
		return nil
	}
	if !hs.persisted {
		if err := hs.h.store.AppendFull(hs.name, hs.snap.Elements(), hs.meta); err != nil {
			return err
		}
		hs.persisted = true
		hs.dirtyAdds, hs.dirtyDels = nil, nil
		return nil
	}
	if len(hs.dirtyAdds) == 0 && len(hs.dirtyDels) == 0 {
		return nil
	}
	adds := make([]uint64, 0, len(hs.dirtyAdds))
	for e := range hs.dirtyAdds {
		adds = append(adds, e)
	}
	dels := make([]uint64, 0, len(hs.dirtyDels))
	for e := range hs.dirtyDels {
		dels = append(dels, e)
	}
	if err := hs.h.store.AppendDelta(hs.name, adds, dels, hs.meta); err != nil {
		return err
	}
	hs.dirtyAdds, hs.dirtyDels = nil, nil
	return nil
}

// flush persists dirty state without demoting (shutdown path).
func (hs *hostedSet) flush() error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.flushLocked()
}

// demote evicts a resident set: flush dirty state, then drop the elements
// and the cached view. Sessions holding the old view keep their snapshot;
// new sessions get a lazy (estimate-only) view. If the flush fails the
// set stays resident — dropping unflushed data would lose writes — and is
// re-inserted into the accounting.
func (hs *hostedSet) demote() {
	hs.mu.Lock()
	if hs.snap == nil || hs.h.store == nil {
		hs.mu.Unlock()
		return
	}
	if err := hs.flushLocked(); err != nil {
		hs.mu.Unlock()
		hs.h.noteResident(hs)
		return
	}
	hs.snap = nil
	hs.view = nil
	hs.mu.Unlock()
	// A promote or update racing this demotion may have re-inserted the set
	// into the LRU between our removal and here; undo that so the resident
	// accounting never carries a cold set.
	hs.h.forget(hs)
	hs.h.evictions.Add(1)
}

// noteResident inserts a set into the resident accounting (idempotent)
// and evicts least-recently-used sets while over the watermark. Eviction
// requires the disk layer; memory-only hosting never evicts.
func (h *hostedStore) noteResident(hs *hostedSet) {
	charge := hs.residentCharge()
	var victims []*hostedSet
	h.mu.Lock()
	if hs.lruPos == nil {
		hs.charge = charge
		hs.lruPos = h.lru.PushFront(hs)
		h.residentBytes.Add(charge)
		h.residentSets.Add(1)
	}
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

// recharge settles a mutated set's resident charge to its current size.
func (h *hostedStore) recharge(hs *hostedSet) {
	charge := hs.residentCharge()
	h.mu.Lock()
	if hs.lruPos != nil {
		h.residentBytes.Add(charge - hs.charge)
		hs.charge = charge
	}
	h.mu.Unlock()
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

// forget removes a set from the resident accounting (Unregister path).
func (h *hostedStore) forget(hs *hostedSet) {
	h.mu.Lock()
	if hs.lruPos != nil {
		h.lru.Remove(hs.lruPos)
		hs.lruPos = nil
		h.residentBytes.Add(-hs.charge)
		h.residentSets.Add(-1)
	}
	h.mu.Unlock()
}

// flushAll persists every resident set's dirty state (shutdown).
func (h *hostedStore) flushAll() error {
	if h.store == nil {
		return nil
	}
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
// cold entry — a footer-only read per set, no elements touched — and
// starts the background segment merger. Call it once, before Serve and
// before the first Host. It returns how many sets were recovered.
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
		if err := s.publish(name, hs, hs.logicalBytes()); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Host registers a hosted set built from elems: persisted as a full
// segment when hosting is enabled, and evictable under MaxResidentBytes —
// the deployment shape for servers carrying far more named sets than fit
// in memory. Re-hosting a name replaces its contents. Elements must be
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
	old, hadOld := s.sets.Get(name)
	hs, err := s.hosted.host(name, elems)
	if err != nil {
		return err
	}
	if err := s.publish(name, hs, hs.logicalBytes()); err != nil {
		return err
	}
	if hadOld {
		if ohs, ok := old.(*hostedSet); ok {
			s.hosted.forget(ohs)
		}
	}
	if err := hs.persist(); err != nil {
		s.Unregister(name)
		return err
	}
	return nil
}

// HostedUpdate applies adds and removes to a hosted set, adds first (an
// element in both ends absent); elements already present, or already
// absent, are no-ops. An added element that is zero or wider than SigBits
// fails the call before anything changes. The cumulative sketch, digest,
// and count are maintained incrementally on this write path — which costs
// the batch, not the set, and is what lets the set answer difference
// estimates even after eviction; changes are persisted as a delta segment
// when the set is next evicted or the server shuts down. Growth is
// reserved against the tenant's byte quota before the set is touched.
func (s *Server) HostedUpdate(name string, add, remove []uint64) error {
	src, ok := s.sets.Get(name)
	if !ok {
		return fmt.Errorf("pbs: unknown set %q", name)
	}
	hs, isHosted := src.(*hostedSet)
	if !isHosted {
		return fmt.Errorf("pbs: set %q is not hosted", name)
	}
	if err := checkElems(add, s.hosted.opt.SigBits); err != nil {
		return err
	}
	if len(add) > 0 {
		// Worst-case reservation: every add is new. Settled to the actual
		// size below.
		if err := s.publish(name, src, hs.logicalBytes()+hostedElemBytes*int64(len(add))); err != nil {
			return err
		}
	}
	err := hs.update(add, remove)
	s.publish(name, src, hs.logicalBytes())
	if err != nil {
		return err
	}
	s.hosted.recharge(hs)
	// The update may have paged a cold set in; settle residency (and run
	// the eviction loop) — a no-op when it was already tracked.
	s.hosted.noteResident(hs)
	return nil
}
