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

// maxEvictWrites bounds the segment writes in flight at once; a write past
// it waits for a slot. An eviction write holds its set's snapshot, so
// resident memory can exceed MaxResidentBytes by that many sets.
const maxEvictWrites = 8

// hostedStore manages the Server's sets, every one of them hosted:
// resident-bytes accounting with LRU eviction, cold loads from the segment
// store, and the segment writes that bring the store up to its sets. It is
// the in-memory head over setstore's immutable segments.
type hostedStore struct {
	opt Options // server protocol options, defaults applied
	tow *estimator.ToW

	// store is the persistent segment layer; nil means memory-only
	// hosting, under which eviction is disabled (dropping a set would
	// lose it). Set once by EnableHosting before the server serves.
	store       *setstore.Store
	maxResident int64
	// writes runs every segment write: writeBehind, or a test's queue.
	writes writeExecutor

	// mu guards the LRU list and each member's lruPos/charge fields. It may
	// be taken under a set's mu, never the other way round.
	mu  sync.Mutex
	lru *list.List // of *hostedSet; front = most recently used

	residentBytes atomic.Int64
	residentSets  atomic.Int64
	coldLoads     atomic.Int64
	evictions     atomic.Int64
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
		writes: writeBehind{slots: make(chan struct{}, maxEvictWrites), closed: make(chan struct{})}}, nil
}

// writeExecutor runs the steps that commit hosted sets' segment writes,
// and every wait for one goes through it: start runs a step, now or later;
// wait returns once w has settled; close waits out every step started, and
// from then on start runs a step at once. A test substitutes a queue it
// steps, to order the writes against each other and against other events.
type writeExecutor interface {
	start(step func())
	wait(w *segmentWrite)
	close()
}

// writeBehind runs each step on a goroutine of its own, at most
// maxEvictWrites at once: start waits for a slot on the caller's goroutine.
type writeBehind struct {
	slots  chan struct{} // one held by each step running
	closed chan struct{} // closed once close holds every slot
}

func (x writeBehind) start(step func()) {
	select {
	case x.slots <- struct{}{}:
		go func() {
			step()
			<-x.slots
		}()
	case <-x.closed:
		step()
	}
}

func (writeBehind) wait(w *segmentWrite) { <-w.done }

// close takes every slot, which waits out the steps running, and keeps them.
func (x writeBehind) close() {
	for range cap(x.slots) {
		x.slots <- struct{}{}
	}
	close(x.closed)
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

// hostedState is where a hosted set is in its lifecycle.
type hostedState uint8

const (
	setResident hostedState = iota // snapshot held, no write in flight
	setWriting                     // snapshot held, its segment write in flight
	setEvicting                    // cold to sessions; its eviction write in flight holds the snapshot
	setCold                        // on disk only
	setDropped                     // out of the registry
)

// hostedSet is one named set under hostedStore management, and the value
// the Server's registry holds: resident, sessions get a materialized
// sharedSet; cold, a lazy view that answers estimates from the persisted
// sketch/digest and pages elements in only for a real delta round. Without
// a DataDir it is memory-only and never evicted.
//
// Its state changes only by the events below, one method each, under mu;
// each leaves its caller the effect to run outside mu: start a write (→w),
// wait for the write in flight, or evict other sets over the watermark.
// Entering resident or writing from outside the LRU admits the set to it
// at its charge; cold, evicting and dropped take it out.
//
//	event       resident          writing        evicting        cold            dropped
//	Host        (built writing, →w: its first full segment)
//	update      apply             wait           wait            read, resident  fails
//	sync load   –                 –              writing (back)  read, resident  read, no LRU
//	evict       evicting →w/cold  evicting       –               –               –
//	commit      –                 resident       cold            –               –
//	failure     –                 resident       resident        –               –
//	unregister  dropped           dropped, wait  dropped, wait   dropped         –
//	flush       writing →w        –              –               –               –
//
// An update waits out the write in flight, so the snapshot is the write's
// own while one is. A set is dropped, its write in flight waited out,
// before it leaves the registry or before the Host that replaced it writes.
type hostedSet struct {
	h    *hostedStore
	name string

	mu    sync.Mutex
	state hostedState
	meta  setstore.Meta // cumulative; kept current on every update
	// snap holds the elements, nil while cold or evicting. It is built once
	// per Host and once per cold load, written only through Apply, and
	// shared by every view handed out until the next write — so the
	// partitions and fold tables sessions cached on it carry across a
	// HostedUpdate.
	snap *core.Snapshot
	view *sharedSet // cached until mutation or demotion invalidates it
	// saved marks the snapshot the store holds: set by a cold load and by
	// every committed segment write, the zero Mark until the first. The
	// writes not yet on disk are snap.Since(saved).
	saved   core.Mark
	pending *segmentWrite // the segment write in flight, nil when none

	// lruPos and charge are guarded by h.mu, not mu.
	lruPos *list.Element
	charge int64
}

// logicalBytes is the tenant-quota charge of this set.
func (hs *hostedSet) logicalBytes() int64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hostedElemBytes * int64(hs.meta.Count)
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
	return &hostedSet{h: h, name: name, state: setCold, meta: meta}, nil
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

// pageInLocked gives a set without its snapshot one: the snapshot its
// eviction write in flight holds, taken back without waiting, or else its
// elements read from the segment store — the one place a hosted set's
// elements are re-read. Requires hs.mu.
func (hs *hostedSet) pageInLocked() error {
	switch {
	case hs.snap != nil:
		return nil
	case hs.pending != nil:
		hs.snap = hs.pending.snap
	default:
		elems, meta, err := hs.h.store.Load(hs.name)
		if err != nil {
			return err
		}
		// Load's replay is strictly increasing, so its ends bound every
		// element: these two checks are NewSnapshot's validation, without
		// its copy.
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
	}
	hs.h.coldLoads.Add(1)
	return nil
}

// loadSnapshot is the event of a sync's cold load, run at most once per
// lazy view (sharedSet.snapOnce): page the elements in, promote the set and
// evict over the watermark. It takes the snapshot back from an eviction
// write in flight, so a sync never waits on the disk.
func (hs *hostedSet) loadSnapshot() (*core.Snapshot, error) {
	hs.mu.Lock()
	err := hs.pageInLocked()
	entered := err == nil && (hs.state == setEvicting || hs.state == setCold)
	if entered {
		hs.state = setResident
		if hs.pending != nil {
			hs.state = setWriting
		}
		hs.enterLocked()
	}
	snap := hs.snap // nil if err is not
	hs.mu.Unlock()
	if entered {
		hs.h.evictOver(hs)
	}
	return snap, err
}

// update is the event of a HostedUpdate: once any write in flight has
// settled, it pages a cold set in and admits it, nets the batch against
// the snapshot's membership (Snapshot.Contains, which flattens a written
// snapshot: ROADMAP 14(a)) and hands it to Snapshot.Apply, whose log is the
// record the next segment is read from, keeping the cumulative sketch,
// digest and count current. add must have passed checkElems: Apply trusts
// its caller. A dropped set fails as an unknown set.
func (hs *hostedSet) update(add, remove []uint64) error {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for hs.state == setWriting || hs.state == setEvicting {
		w := hs.pending
		hs.mu.Unlock()
		hs.h.writes.wait(w)
		hs.mu.Lock()
	}
	if hs.state == setDropped {
		return unknownSet(hs.name)
	}
	if err := hs.pageInLocked(); err != nil {
		return err
	}
	hs.state = setResident
	defer hs.enterLocked()
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
	done       chan struct{} // closed once the write has settled
	err        error         // the commit's, read once done is closed
}

// takeWriteLocked returns the write that brings the store up to the
// snapshot, or nil when the writes since the last one cancelled out.
// Requires hs.mu and a resident set.
func (hs *hostedSet) takeWriteLocked() *segmentWrite {
	adds, dels, ok := hs.snap.Since(hs.saved)
	if ok && len(adds) == 0 && len(dels) == 0 {
		return nil
	}
	return &segmentWrite{full: !ok || hs.h.store.FullDue(hs.name), snap: hs.snap, adds: adds, dels: dels, meta: hs.meta, done: make(chan struct{})}
}

// write starts w's step, which commits and settles it; under memory-only
// hosting w settles at once.
func (h *hostedStore) write(hs *hostedSet, w *segmentWrite) {
	if h.store == nil {
		hs.settle(w, nil)
		return
	}
	h.writes.start(func() {
		var err error
		if w.full {
			err = h.store.AppendFull(hs.name, w.snap.Elements(), w.meta)
		} else {
			err = h.store.AppendDelta(hs.name, w.adds, w.dels, w.meta)
		}
		hs.settle(w, err)
	})
}

// settle is the event of a write's commit (err nil) or failure. A failure
// leaves saved where it was, so the next write carries these writes too,
// and hands an evicted set its snapshot back, resident: dropping unwritten
// data would lose it. Nothing is evicted until the next event that evicts.
func (hs *hostedSet) settle(w *segmentWrite, err error) {
	hs.mu.Lock()
	hs.pending = nil
	if err == nil {
		hs.saved = w.snap.Mark()
	} else if hs.snap == nil {
		hs.snap, hs.view = w.snap, nil
	}
	switch {
	case hs.state == setWriting || hs.state == setEvicting && err != nil:
		hs.state = setResident
		hs.enterLocked()
	case hs.state == setEvicting:
		hs.state = setCold
	}
	hs.mu.Unlock()
	w.err = err
	close(w.done)
}

// evict is the event of a set the LRU gave up: it turns cold to new
// sessions (those holding the old view keep its snapshot) and returns the
// write of what the store lacks, if anything. A set taken back from its
// write in flight needs no second one: update waits that write out.
func (hs *hostedSet) evict() *segmentWrite {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	var w *segmentWrite
	switch hs.state {
	case setResident:
		w = hs.takeWriteLocked()
		hs.pending = w
	case setWriting:
	default:
		return nil
	}
	hs.state = setCold
	if hs.pending != nil {
		hs.state = setEvicting
	}
	hs.snap, hs.view = nil, nil
	// An update racing this eviction may have re-admitted the set since the
	// LRU gave it up; the accounting never carries a cold set.
	hs.h.mu.Lock()
	hs.h.removeLocked(hs)
	hs.h.mu.Unlock()
	hs.h.evictions.Add(1)
	return w
}

// drop is the event of the set leaving the registry (Unregister, or a Host
// that replaced it): it is out of the accounting for good, and writes
// nothing more. It returns the write in flight, which the caller waits out.
func (hs *hostedSet) drop() *segmentWrite {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.state = setDropped
	hs.h.mu.Lock()
	hs.h.removeLocked(hs)
	hs.h.mu.Unlock()
	return hs.pending
}

// flush is the shutdown event: it returns the write of what the store
// lacks of a resident set, for the caller to run. A set with nothing
// unwritten — one that only answered syncs — writes nothing.
func (hs *hostedSet) flush() *segmentWrite {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.state != setResident {
		return nil
	}
	if hs.pending = hs.takeWriteLocked(); hs.pending != nil {
		hs.state = setWriting
	}
	return hs.pending
}

// enterLocked puts the set at the front of the LRU at its resident charge,
// or settles the charge of a set already there. Requires hs.mu.
func (hs *hostedSet) enterLocked() {
	h, charge := hs.h, hostedSetOverhead+hostedElemBytes*int64(hs.meta.Count)
	h.mu.Lock()
	if hs.lruPos == nil {
		hs.lruPos = h.lru.PushFront(hs)
		h.residentSets.Add(1)
	}
	h.residentBytes.Add(charge - hs.charge)
	hs.charge = charge
	h.mu.Unlock()
}

// removeLocked takes hs out of the LRU and its charge off the resident
// bytes. Requires h.mu.
func (h *hostedStore) removeLocked(hs *hostedSet) {
	if hs.lruPos != nil {
		h.lru.Remove(hs.lruPos)
		hs.lruPos = nil
		h.residentBytes.Add(-hs.charge)
		h.residentSets.Add(-1)
		hs.charge = 0
	}
}

// evictOver evicts least-recently-used sets, never keep (it is about to
// serve), while the resident bytes are over the watermark: on the caller's
// goroutine, all but their segment writes. Memory-only hosting never evicts.
func (h *hostedStore) evictOver(keep *hostedSet) {
	if h.maxResident <= 0 || h.store == nil {
		return
	}
	var victims []*hostedSet
	h.mu.Lock()
	for h.residentBytes.Load() > h.maxResident && h.lru.Len() > 1 {
		v := h.lru.Back().Value.(*hostedSet)
		if v == keep {
			break
		}
		h.removeLocked(v)
		victims = append(victims, v)
	}
	h.mu.Unlock()
	for _, v := range victims {
		if w := v.evict(); w != nil {
			h.write(v, w)
		}
	}
}

// touch marks a resident set most-recently-used; one the LRU gave up is
// left alone — if it is still wanted it will cold-load and re-enter.
func (h *hostedStore) touch(hs *hostedSet) {
	h.mu.Lock()
	if hs.lruPos != nil {
		h.lru.MoveToFront(hs.lruPos)
	}
	h.mu.Unlock()
}

// flushAll waits out every write in flight, then writes what the store
// lacks of every resident set (shutdown). Writes after it has begun run
// inline.
func (h *hostedStore) flushAll() error {
	if h.store == nil {
		return nil
	}
	h.writes.close()
	h.mu.Lock()
	sets := make([]*hostedSet, 0, h.lru.Len())
	for e := h.lru.Front(); e != nil; e = e.Next() {
		sets = append(sets, e.Value.(*hostedSet))
	}
	h.mu.Unlock()
	var firstErr error
	for _, hs := range sets {
		if w := hs.flush(); w != nil {
			h.write(hs, w)
			if h.writes.wait(w); w.err != nil && firstErr == nil {
				firstErr = w.err
			}
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
	var err error
	switch {
	case s.closed:
		err = ErrServerClosed
	case s.hosted.store != nil:
		err = errors.New("pbs: hosting already enabled")
	default:
		s.hosted.store, err = setstore.Open(s.opt.DataDir, DefaultMergeThreshold)
	}
	store := s.hosted.store
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	names := store.Names()
	for n, name := range names {
		hs, err := s.hosted.recover(name)
		if err != nil {
			return n, err
		}
		if _, err := s.publish(name, hs, hs.logicalBytes(), false); err != nil {
			return n, err
		}
	}
	return len(names), nil
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
	snap, err := core.NewValidatedSnapshot(sortedUnique(elems), s.hosted.opt.coreConfig())
	if err != nil {
		return err
	}
	// The set is born writing its first full segment, started once it is
	// registered (quota checks).
	meta := s.hosted.metaFor(snap.Elements())
	w := &segmentWrite{full: true, snap: snap, meta: meta, done: make(chan struct{})}
	hs := &hostedSet{h: s.hosted, name: name, state: setWriting, snap: snap, meta: meta, pending: w}
	old, err := s.publish(name, hs, hs.logicalBytes(), false)
	if err != nil {
		return err
	}
	if old != nil {
		s.retire(old)
	}
	s.hosted.write(hs, w)
	if s.hosted.writes.wait(w); w.err != nil {
		s.retire(hs)
		s.sets.Unregister(name, hs) // unless a newer Host replaced it
		return w.err
	}
	s.hosted.evictOver(hs)
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
	if _, cerr := s.publish(name, hs, hs.logicalBytes(), true); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	s.hosted.evictOver(hs)
	return nil
}
