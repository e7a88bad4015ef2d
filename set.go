package pbs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/core"
	"pbs/internal/estimator"
)

// Set is a long-lived, mutable, concurrency-safe set handle and the primary
// entry point of the package: build it once, mutate it with Add/Remove as
// the underlying data changes, and reconcile it any number of times — as
// the initiator (Sync), the responder (Respond), or fully in process
// (Reconcile). A concurrent Server serves sets of its own (Server.Host).
//
// The handle is what makes repeated reconciliation cheap. Element
// validation happens once, at insertion. The first view sorts the elements
// into a snapshot and takes their count, Tug-of-War estimator sketch and
// strong-verification digest in one pass; from then on each effective
// Add/Remove keeps those exact — O(ℓ) for the sketch, one element hash for
// the digest — as a hosted set keeps its own. The snapshot and its per-plan
// group partitions and round-one fold tables are persistent — writes are
// journaled and applied to the previous view, which shares everything they
// did not touch — so a sync after a mutation costs the mutation, not the
// set, with or without WithStrongVerify. Every view is shared read-only by
// all concurrent sessions. This is the amortization that lets one process
// carry thousands of syncs per second against the same data (see Server),
// now available to both protocol roles.
//
// All methods are safe for concurrent use. Mutating the set while a sync is
// in flight is safe: each sync operates on the immutable view current when
// it started, and later syncs pick up the mutations.
type Set struct {
	cfg setConfig
	tow *estimator.ToW

	// specPrior seeds the fast path's speculative difference bound: the
	// size of the last difference a wire Sync learned, plus one (zero
	// means no sync has completed yet). Churn between syncs is usually a
	// fraction of the last delta, so the previous outcome is the best
	// available predictor of the next.
	specPrior atomic.Uint64

	// prior is the learned EWMA over realized difference cardinalities,
	// fed by every completed sync and consulted by the adaptive controller
	// (see WithAdaptive) to size speculation. It subsumes specPrior's
	// single-outcome memory with a smoothed regime estimate; specPrior stays
	// as the legacy heuristic's input and the adaptive path's
	// most-recent-outcome floor.
	prior dhatPrior

	mu    sync.RWMutex
	elems map[uint64]struct{}
	// shared is the last immutable view handed out (nil before the first);
	// journal lists the effective writes since, in order. The next view
	// applies the journal to shared. meta is the set's metadata, taken by
	// the first view and kept exact under Add/Remove afterwards.
	shared  *sharedSet
	journal []journalEntry
	meta    setMeta
}

// journalEntry is one effective write: x was inserted (add) or deleted.
type journalEntry struct {
	x   uint64
	add bool
}

// journalFraction bounds the journal at |S|/journalFraction entries (plus a
// little for tiny sets). Past that the set applies the journal to its view
// at once, so a burst of writes holds no more than that between syncs.
const journalFraction = 8

// record journals one effective write and steps the metadata. Called with
// s.mu held.
func (s *Set) record(x uint64, add bool) {
	if s.shared == nil {
		return // the first view builds everything from the elements
	}
	s.meta.step(s.tow, s.cfg.opt.Seed, x, add)
	s.journal = append(s.journal, journalEntry{x, add})
	if len(s.journal) > len(s.elems)/journalFraction+64 {
		s.applyJournal()
	}
}

// applyJournal makes the journal's net effect on the last view the new
// view, carrying a copy of the metadata, and empties the journal; a journal
// that cancels out leaves the view as it was. Called with s.mu held.
func (s *Set) applyJournal() {
	if add, remove := netJournal(s.journal); len(add)+len(remove) > 0 {
		s.shared = &sharedSet{opt: s.cfg.opt, snap: s.shared.snap.Apply(add, remove), tow: s.tow, meta: s.meta.clone()}
	}
	s.journal = s.journal[:0]
}

// netJournal cancels the journal down to its net effect. An element's
// entries alternate (only effective writes are journaled), so an even count
// is a no-op and an odd count nets to its first entry.
func netJournal(journal []journalEntry) (add, remove []uint64) {
	slices.SortStableFunc(journal, func(a, b journalEntry) int { return cmp.Compare(a.x, b.x) })
	for i := 0; i < len(journal); {
		j := i + 1
		for j < len(journal) && journal[j].x == journal[i].x {
			j++
		}
		if (j-i)%2 == 1 {
			if journal[i].add {
				add = append(add, journal[i].x)
			} else {
				remove = append(remove, journal[i].x)
			}
		}
		i = j
	}
	return add, remove
}

// setConfig is the resolved configuration a Set call runs under: the
// protocol Options plus the call-scoped extras that functional options
// control. Options given to NewSet become the Set's defaults; options given
// to Sync/Respond/Reconcile override them for that call only.
type setConfig struct {
	opt     Options
	onDelta func(elems []uint64, round int)
	setName string
	// adaptiveOff inverts WithAdaptive so the zero value keeps the
	// adaptive controller on by default.
	adaptiveOff bool

	idleTimeout time.Duration

	retry *RetryPolicy
}

// Option configures a Set or a single reconciliation call. Structural
// options (WithSeed, WithSigBits, WithEstimatorSketches) bind the cached
// snapshot and sketch and are therefore fixed at NewSet; passing a
// different value to a per-call site returns an error from that call.
type Option func(*setConfig)

// WithOptions applies a flat Options struct wholesale — the shape
// ServerOptions.Protocol and Client.Options take. Later options override
// individual fields.
func WithOptions(o Options) Option { return func(c *setConfig) { c.opt = o } }

// WithSeed sets the shared protocol hash seed. Both parties must agree.
// Structural: fixed at NewSet.
func WithSeed(seed uint64) Option { return func(c *setConfig) { c.opt.Seed = seed } }

// WithSigBits sets the element signature width log|U| in bits (8..64).
// Structural: fixed at NewSet.
func WithSigBits(bits uint) Option { return func(c *setConfig) { c.opt.SigBits = bits } }

// WithEstimatorSketches sets the ToW sketch count ℓ (default 128).
// Structural: fixed at NewSet.
func WithEstimatorSketches(l int) Option {
	return func(c *setConfig) { c.opt.EstimatorSketches = l }
}

// WithGamma sets the conservative scale applied to the difference estimate
// (default 1.38).
func WithGamma(g float64) Option { return func(c *setConfig) { c.opt.Gamma = g } }

// WithDelta sets the target average number of distinct elements per group.
func WithDelta(delta int) Option { return func(c *setConfig) { c.opt.Delta = delta } }

// WithTargetRounds sets the round budget r the parameter optimizer plans
// for.
func WithTargetRounds(r int) Option { return func(c *setConfig) { c.opt.TargetRounds = r } }

// WithTargetSuccess sets the probability p0 of completing within the
// target rounds.
func WithTargetSuccess(p float64) Option {
	return func(c *setConfig) { c.opt.TargetSuccess = p }
}

// WithKnownD asserts |A△B| <= d. Sync and Reconcile size their speculative
// first round from it instead of from the prior or the estimate; the hello
// still carries the sketches, and a d the estimate dwarfs is declined and
// re-planned from d̂.
func WithKnownD(d int) Option { return func(c *setConfig) { c.opt.KnownD = d } }

// WithMaxD caps the difference estimate d̂ a wire session will accept
// before deriving a plan from it — the hostile-peer allocation guard. See
// Options.MaxD for the full semantics.
func WithMaxD(d int) Option { return func(c *setConfig) { c.opt.MaxD = d } }

// WithMaxRounds caps protocol rounds (0 selects the DefaultMaxRounds
// safety cap).
func WithMaxRounds(n int) Option { return func(c *setConfig) { c.opt.MaxRounds = n } }

// WithStrongVerify toggles the §2.2.3 strong multiset-hash verification:
// the responder's hello reply carries its set's digest, 32 bytes, and the
// initiator compares it at the end with its own digest, toggled by each
// verified difference element. Both sets keep their digests under every
// write, so the check costs no pass over either set.
func WithStrongVerify(on bool) Option { return func(c *setConfig) { c.opt.StrongVerify = on } }

// WithParallelism sets the local worker count for per-group encoding and
// decoding (0 = GOMAXPROCS). Purely local: it never changes wire bytes.
func WithParallelism(n int) Option { return func(c *setConfig) { c.opt.Parallelism = n } }

// WithOnDelta streams the learned difference as it is learned: fn is
// invoked after each round with the elements of every group pair that
// passed checksum verification in that round, in sorted order, plus the
// 1-based round number. PBS is piecewise reconciliable — each group pair
// decodes independently — so the vast majority of differences arrive in
// the first round even when a few groups need more; WithOnDelta is that
// property expressed in the API, instead of buried until Result.
//
// fn is called from the session's own goroutine, never concurrently, and
// only for rounds that verified at least one new element; the batch may be
// retained. It applies to the initiator-side calls (Sync, Reconcile) —
// responders do not learn the difference. The callback must not block for
// long: the next round's message is not sent until it returns.
func WithOnDelta(fn func(elems []uint64, round int)) Option {
	return func(c *setConfig) { c.onDelta = fn }
}

// WithFastSync does nothing. Sync always opens with the single-RTT fast
// hello: one frame carrying the protocol version, the set name, the
// estimator sketches, and a speculative first round sized from WithKnownD,
// the previous sync's outcome, or DefaultSpeculativeD.
//
// Deprecated: the fast hello is the only way a session opens; drop the
// option.
func WithFastSync(bool) Option { return func(*setConfig) {} }

// WithSetName selects the remote set a Sync reconciles against: the name
// of a Server registry entry, sent in the session's opening hello frame
// (empty means the server's DefaultSetName). Respond and Reconcile have no
// registry and ignore it.
func WithSetName(name string) Option { return func(c *setConfig) { c.setName = name } }

// WithIdleTimeout bounds how long a sync waits for a single frame (and for
// a single frame write): a peer silent for longer fails the session with a
// timeout instead of hanging it forever. It requires a deadline-capable
// connection (net.Conn); on a bare io.ReadWriter it is ignored. 0 means no
// idle bound. A Server bounds the sessions it serves by its own
// ServerOptions.IdleTimeout instead.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *setConfig) { c.idleTimeout = d }
}

// WithRetry makes Sync retry retryable failures (see Retryable for the
// taxonomy) under p: exponential backoff with full jitter between
// attempts, honoring any retry-after hint from a shed-load server. With a
// policy set, Sync accepts a nil conn and dials every attempt through
// p.Dial; when a caller-provided conn's first attempt fails, Sync closes
// it (the stream state is unknown) and re-dials. Retried attempts reuse
// the d̂ prior learned before the failure, so a resumed fast sync usually
// completes in a single round trip.
func WithRetry(p RetryPolicy) Option {
	return func(c *setConfig) { c.retry = &p }
}

// sigMaskFor returns the valid-element mask for a signature width.
func sigMaskFor(bits uint) uint64 {
	if bits == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// checkElems reports the first element that is zero or wider than bits —
// the write-path contract of Set.Add, Server.Host and Server.HostedUpdate,
// checked before any state is touched.
func checkElems(xs []uint64, bits uint) error {
	mask := sigMaskFor(bits)
	for _, x := range xs {
		if x == 0 || x&^mask != 0 {
			return fmt.Errorf("pbs: element %#x outside %d-bit universe (0 excluded)", x, bits)
		}
	}
	return nil
}

// NewSet validates elems once and returns a reusable set handle. Elements
// must be nonzero, distinct, and fit in the configured SigBits. The one-off
// costs are O(|S|) validation here and, on the first sync, the snapshot's
// sort, the O(|S|·ℓ) initial estimator sketch (one reduction per hash lane
// and element, split across GOMAXPROCS goroutines above a few thousand
// elements) and the verification digest (one hash per element); after that,
// mutation costs O(ℓ) per element and every reconciliation starts from the
// warm state.
func NewSet(elems []uint64, opts ...Option) (*Set, error) {
	var cfg setConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.opt = cfg.opt.withDefaults()
	if err := cfg.opt.validate(); err != nil {
		return nil, err
	}
	tow, err := estimator.NewToW(cfg.opt.EstimatorSketches, cfg.opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	mask := sigMaskFor(cfg.opt.SigBits)
	set := make(map[uint64]struct{}, len(elems))
	for _, x := range elems {
		if x == 0 || x&^mask != 0 {
			return nil, fmt.Errorf("pbs: element %#x outside %d-bit universe (0 excluded)", x, cfg.opt.SigBits)
		}
		if _, dup := set[x]; dup {
			return nil, fmt.Errorf("pbs: duplicate element %#x", x)
		}
		set[x] = struct{}{}
	}
	return &Set{
		cfg:   cfg,
		tow:   tow,
		elems: set,
	}, nil
}

// Len returns the current number of elements.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.elems)
}

// Contains reports whether x is currently in the set.
func (s *Set) Contains(x uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.elems[x]
	return ok
}

// Elements returns a copy of the current elements, in no particular order.
func (s *Set) Elements() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, 0, len(s.elems))
	for x := range s.elems {
		out = append(out, x)
	}
	return out
}

// Add inserts elements, returning how many were actually new (already
// present elements are no-ops). Invalid elements — zero, or wider than the
// set's SigBits — fail the whole call before anything is inserted. Each
// insertion updates the estimator sketch incrementally in O(ℓ), and the
// verification digest by one element hash.
func (s *Set) Add(xs ...uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkElems(xs, s.cfg.opt.SigBits); err != nil {
		return 0, err
	}
	added := 0
	for _, x := range xs {
		if _, ok := s.elems[x]; ok {
			continue
		}
		s.elems[x] = struct{}{}
		s.record(x, true)
		added++
	}
	return added, nil
}

// Remove deletes elements, returning how many were actually present.
// Absent elements are no-ops. Each removal updates the estimator sketch
// incrementally in O(ℓ) and the digest by one element hash — both are
// linear, so removal is exact cancellation, not recomputation.
func (s *Set) Remove(xs ...uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, x := range xs {
		if _, ok := s.elems[x]; !ok {
			continue
		}
		delete(s.elems, x)
		s.record(x, false)
		removed++
	}
	return removed
}

// view returns the current immutable view of the set. After a mutation
// the new view is the previous one with the journaled writes applied — the
// snapshot shares everything they left alone — and only the first view
// collects the elements afresh (the snapshot sorts them) and takes their
// metadata. Elements are never re-validated (they were at insertion).
func (s *Set) view() (*sharedSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shared != nil {
		s.applyJournal()
		return s.shared, nil
	}
	elems := make([]uint64, 0, len(s.elems))
	for x := range s.elems {
		elems = append(elems, x)
	}
	snap, err := core.NewValidatedSnapshot(elems, s.cfg.opt.coreConfig())
	if err != nil {
		return nil, err
	}
	s.meta = metaFor(s.tow, s.cfg.opt.Seed, snap.Elements())
	s.shared = &sharedSet{opt: s.cfg.opt, snap: snap, tow: s.tow, meta: s.meta.clone()}
	return s.shared, nil
}

// callConfig resolves one call's configuration: the Set's defaults with the
// per-call options applied, rejecting changes to the structural fields the
// cached state was built under.
func (s *Set) callConfig(opts []Option) (setConfig, error) {
	cfg := s.cfg
	for _, o := range opts {
		o(&cfg)
	}
	// Re-resolve defaults: zero values introduced by per-call options
	// (e.g. a wholesale WithOptions bridge with SigBits or Gamma unset)
	// mean "default", exactly as they do at NewSet.
	cfg.opt = (&cfg.opt).withDefaults()
	base := s.cfg.opt
	switch {
	case cfg.opt.Seed != base.Seed:
		return setConfig{}, fmt.Errorf("pbs: Seed is structural and fixed at NewSet (have %#x, call asked for %#x)", base.Seed, cfg.opt.Seed)
	case cfg.opt.SigBits != base.SigBits:
		return setConfig{}, fmt.Errorf("pbs: SigBits is structural and fixed at NewSet (have %d, call asked for %d)", base.SigBits, cfg.opt.SigBits)
	case cfg.opt.EstimatorSketches != base.EstimatorSketches:
		return setConfig{}, fmt.Errorf("pbs: EstimatorSketches is structural and fixed at NewSet (have %d, call asked for %d)", base.EstimatorSketches, cfg.opt.EstimatorSketches)
	}
	if err := cfg.opt.validate(); err != nil {
		return setConfig{}, err
	}
	return cfg, nil
}

// Sync reconciles this set against a remote responder over conn, as the
// initiator (the side that learns the difference). It blocks until the
// exchange completes, the context is cancelled or expires, or the
// connection fails. The remote side runs Respond or a Server with
// matching options.
//
// ctx cancellation and deadline are plumbed into the connection's
// read/write deadlines when conn supports them (any net.Conn does), so a
// cancelled sync unblocks immediately and returns ctx.Err(); on a bare
// io.ReadWriter, cancellation is only observed between frames. WithOnDelta
// streams verified difference elements round by round; WithSetName
// addresses a named set on a Server.
func (s *Set) Sync(ctx context.Context, conn io.ReadWriter, opts ...Option) (*Result, error) {
	cfg, err := s.callConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.retry == nil {
		if conn == nil {
			return nil, errors.New("pbs: Sync needs a connection (or a WithRetry policy with a Dial hook)")
		}
		return s.syncAttempt(ctx, conn, &cfg)
	}
	nc, _ := conn.(net.Conn)
	if conn != nil && nc == nil {
		// Retrying needs Close; a bare io.ReadWriter can only run once.
		return s.syncAttempt(ctx, conn, &cfg)
	}
	return s.syncRetry(ctx, nc, &cfg)
}

// syncAttempt runs one sync exchange over conn. The shared snapshot is
// re-resolved per attempt, so a retry picks up any set churn since the
// failed try.
func (s *Set) syncAttempt(ctx context.Context, conn io.ReadWriter, cfg *setConfig) (*Result, error) {
	ss, err := s.view()
	if err != nil {
		return nil, err
	}
	// A negotiating mux stream asks to fold its feature offer into the
	// hello, whose reply is the one frame that can carry the answer back.
	var features uint64
	if fr, ok := conn.(featureRequester); ok {
		features = fr.muxFeatureRequest()
	}
	is, opening, err := ss.newInitiator(cfg.opt, initiatorCall{
		onDelta:  cfg.onDelta,
		specD:    s.adaptiveSpeculativeD(cfg),
		features: features,
		adaptive: !cfg.adaptiveOff,
		name:     cfg.setName,
	})
	if err != nil {
		return nil, err
	}
	p, stop := newFramePump(ctx, conn, cfg.idleTimeout)
	defer stop()
	if err := pumpSession(p, is, opening, nil); err != nil {
		// Even a failed session may have learned the peer's d̂; seed
		// the speculation prior with it so a retry sizes its first
		// round right and usually completes in one round trip.
		if d := is.dhat; d > 0 {
			s.specPrior.Store(d + 1)
		}
		return nil, err
	}
	res := is.res
	if res.Complete {
		// Remember the outcome to size the next fast sync's speculation:
		// the raw value for the legacy heuristic, and folded into the
		// learned EWMA prior the adaptive controller predicts from.
		s.specPrior.Store(uint64(len(res.Difference)) + 1)
		s.prior.observe(float64(len(res.Difference)))
	}
	return res, nil
}

// DefaultSpeculativeD is the speculative difference bound a fast sync
// opens with when neither WithKnownD nor a previous sync's outcome is
// available to size it. At the default δ it buys a first round of a few
// KiB — cheap enough to waste, large enough that most warm syncs finish
// in it.
const DefaultSpeculativeD = 128

// speculativeD sizes the fast path's speculative first round: an
// explicit WithKnownD wins, then the last wire sync's difference plus a
// small headroom, then DefaultSpeculativeD for a cold handle. The prior
// is an exact count (not a noisy estimate), and the plan derivation
// multiplies by Gamma on top, so the headroom only has to absorb churn
// between syncs — oversizing it inflates the BCH work on both sides of
// every sync, which on a loopback link costs more than the round trip
// the speculation exists to save.
func (s *Set) speculativeD(opt Options) uint64 {
	if opt.KnownD > 0 {
		return uint64(opt.KnownD)
	}
	p := s.specPrior.Load()
	if p == 0 {
		return DefaultSpeculativeD
	}
	d := p - 1
	return d + d/8 + 8
}

// Respond serves exactly one initiator session over conn — the peer-to-peer
// responder role (the counterpart of a remote Sync). It returns nil when
// the initiator signals completion, and ctx.Err() if the context ends
// first. For many concurrent sessions, publish the elements on a Server
// (Server.Host, written with Server.HostedUpdate) and serve them there.
func (s *Set) Respond(ctx context.Context, conn io.ReadWriter, opts ...Option) error {
	cfg, err := s.callConfig(opts)
	if err != nil {
		return err
	}
	ss, err := s.view()
	if err != nil {
		return err
	}
	p, stop := newFramePump(ctx, conn, cfg.idleTimeout)
	defer stop()
	return pumpSession(p, &responderSession{opt: cfg.opt, shared: ss}, nil, func(err error) { notifyPeerError(conn, err) })
}

// Reconcile learns this set △ other fully in process (both endpoints in
// this address space) — the mode tests, examples, and batch pipelines use.
// It runs the same session engines as a Sync against Respond, stepped in
// memory on the caller's goroutine, with no framing and no connection.
// Both sketches are at hand, so the speculative first round is sized from
// the ToW estimate (WithKnownD overrides it, and MaxD bounds it as on the
// wire). Both handles must have been built with the same structural
// options. The context is checked between rounds; WithOnDelta streams
// per-round verified deltas.
func (s *Set) Reconcile(ctx context.Context, other *Set, opts ...Option) (*Result, error) {
	cfg, err := s.callConfig(opts)
	if err != nil {
		return nil, err
	}
	theirs := other.cfg.opt
	if theirs.Seed != cfg.opt.Seed || theirs.SigBits != cfg.opt.SigBits ||
		theirs.EstimatorSketches != cfg.opt.EstimatorSketches {
		return nil, fmt.Errorf("pbs: sets were built under different structural options (seed/sigbits/sketches)")
	}
	mine, err := s.view()
	if err != nil {
		return nil, err
	}
	remote, err := other.view()
	if err != nil {
		return nil, err
	}
	specD := uint64(cfg.opt.KnownD)
	if specD == 0 {
		dhatF, err := s.tow.Estimate(mine.meta.sketch, remote.meta.sketch)
		if err != nil {
			return nil, err
		}
		if specD, err = cfg.opt.boundEstimate(dhatF); err != nil {
			return nil, err
		}
	}
	is, out, err := mine.newInitiator(cfg.opt, initiatorCall{
		onDelta:  cfg.onDelta,
		specD:    specD,
		adaptive: !cfg.adaptiveOff,
	})
	if err != nil {
		return nil, err
	}
	rs := &responderSession{opt: cfg.opt, shared: remote}
	// Each engine answers one frame with one frame, until the initiator
	// closes the session.
	for done := false; !done; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reply, _, err := rs.step(out[0].Type, out[0].Payload)
		if err != nil {
			return nil, err
		}
		if out, done, err = is.step(reply[0].Type, reply[0].Payload); err != nil {
			return nil, err
		}
	}
	res := is.res
	// Both endpoints are in hand, so the payload counts both directions —
	// the paper's quantity — where a wire initiator sees only its own.
	res.PayloadBytes += (rs.payloadBits() + 7) / 8
	if res.Complete {
		s.prior.observe(float64(len(res.Difference)))
	}
	return res, nil
}
