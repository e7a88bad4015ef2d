package pbs

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/msethash"
)

// This file holds the non-blocking session engine behind the wire protocol:
// InitiatorSession and ResponderSession advance one received frame at a
// time via Step, returning the frames to send back. SyncInitiator and
// SyncResponder (sync.go) are thin blocking wrappers over these machines,
// and the concurrent Server (server.go) drives many ResponderSessions
// without dedicating a full protocol loop (or a private copy of the set)
// to each connection.
//
// The engine also hardens the protocol against hostile peers: the
// exchanged difference estimate d̂ is validated against Options.MaxD on
// both sides before it can size a Plan, a mid-session re-estimate is
// rejected instead of silently discarding reconciliation state, and every
// parse rejects trailing bytes.

// Frame is one protocol message: a type byte plus its payload. The wire
// representation adds the 4-byte length prefix (see writeFrame).
type Frame struct {
	Type    byte
	Payload []byte
}

// Seed tweaks deriving the protocol's independent hash domains from the
// shared Options.Seed. Both parties must apply identical tweaks, so every
// call site uses these constants — changing one without the other side
// silently breaks estimation or verification.
const (
	towSeedTweak    = 0x70E57 // Tug-of-War estimator hash bank
	verifySeedTweak = 0x5EC   // §2.2.3 strong-verification multiset hash
)

// unexpectedType reports a frame of the wrong type, surfacing a peer's
// msgError diagnostic (sanitized, with any structured code decoded) when
// that is what arrived instead.
func unexpectedType(want, got byte, payload []byte) error {
	if got == msgError {
		return parsePeerErrPayload(payload)
	}
	return fmt.Errorf("pbs: expected message type %d, got %d", want, got)
}

// maxD resolves the effective cap on the exchanged difference estimate:
// MaxD if positive, DefaultMaxD if zero, and an effectively unlimited 2^62
// when negative (explicitly opting out of the guard).
func (o Options) maxD() uint64 {
	switch {
	case o.MaxD > 0:
		return uint64(o.MaxD)
	case o.MaxD < 0:
		return 1 << 62
	default:
		return DefaultMaxD
	}
}

// boundEstimate converts a raw ToW estimate into the rounded d̂ the
// protocol exchanges, rejecting the non-finite, negative, or over-limit
// values a hostile peer's sketches can induce before they reach plan
// derivation.
func (o Options) boundEstimate(dhatF float64) (uint64, error) {
	if math.IsNaN(dhatF) || dhatF < 0 {
		return 0, fmt.Errorf("pbs: estimator produced unusable d̂ = %v", dhatF)
	}
	max := o.maxD()
	if dhatF >= float64(max) {
		return 0, fmt.Errorf("pbs: estimate d̂ = %.0f exceeds limit %d", dhatF, max)
	}
	return uint64(math.Round(dhatF)), nil
}

// InitiatorSession is the non-blocking initiator (Alice) state machine.
// Construct it with NewInitiatorSession (or take it from a Set via
// Set.Sync), send the returned opening frames, then feed every frame
// received from the responder to Step and send whatever it returns, until
// done. The session reconciles against an immutable SharedSet view, so the
// validated snapshot, the ToW sketch, and the group partitions are all
// reusable across sessions — initiators get the same amortization servers
// do.
type InitiatorSession struct {
	opt     Options
	shared  *SharedSet
	onDelta func(elems []uint64, round int)

	state int
	alice *core.Alice
	plan  core.Plan

	dhat          uint64
	estBytes      int
	rounds        int
	aliceWireBits int
	bobWireBits   int

	// Fast-path state: payload bits of a speculative round the responder
	// declined (still spent on the wire, so still accounted), and the
	// verification digest piggybacked on the hello reply, which lets a
	// StrongVerify session skip the msgVerify round trip.
	specBits   int
	haveDigest bool
	peerDigest msethash.Digest

	// features is the feature bitmap requested in a version-2 fast hello;
	// zero keeps the hello at version 1 and the wire bytes legacy-identical.
	features uint64

	// wantAdaptive records that the fast hello offered adaptive round
	// re-planning; adaptive records the responder's grant, under which both
	// endpoints re-derive (m, t) per round from the Markov occupancy model.
	wantAdaptive bool
	adaptive     bool

	res *Result
}

const (
	initWantEstimateReply = iota
	initWantRoundReply
	initWantVerifyReply
	initWantHelloReply // fast path: msgHelloV1 sent, awaiting msgHelloReplyV1
	initClosed
)

// fastSpecAccepted reports whether a responder should answer a speculative
// round sized for specD when the piggybacked sketches put the true
// estimate at dhat. Piecewise decodability makes an undersized round safe
// — decoded groups land now, failed groups split 3-way in round 2 — but a
// speculation the estimate dwarfs would converge slower than just
// re-planning from d̂, which costs no extra round trip on the decline
// path. The 2·d_spec+16 window is the region where round-2 splitting
// still beats a restart. Both sides must apply this rule identically;
// the initiator uses it only to predict (and test) responder behavior.
func fastSpecAccepted(specD, dhat uint64) bool {
	return dhat <= 2*specD+16
}

// NewInitiatorSession starts an initiator session for set and returns the
// opening frames (the ToW estimate) to send to the responder. For repeated
// syncs of the same (possibly mutating) set, build a Set once instead — it
// keeps the validated snapshot and the ToW sketch warm across sessions.
func NewInitiatorSession(set []uint64, o *Options) (*InitiatorSession, []Frame, error) {
	ss, err := NewSharedSet(set, o)
	if err != nil {
		return nil, nil, err
	}
	s, opening := ss.newInitiatorSession(ss.opt, nil)
	return s, opening, nil
}

// newInitiatorSession starts an initiator session over the shared view.
// opt must agree with ss.opt on Seed, SigBits, and EstimatorSketches (the
// fields the cached snapshot and sketch were built under); the remaining
// fields may vary per call.
func (ss *SharedSet) newInitiatorSession(opt Options, onDelta func(elems []uint64, round int)) (*InitiatorSession, []Frame) {
	est := encodeSketches(ss.towSketch())
	s := &InitiatorSession{
		opt:      opt,
		shared:   ss,
		onDelta:  onDelta,
		state:    initWantEstimateReply,
		estBytes: len(est),
	}
	return s, []Frame{{msgEstimate, est}}
}

// newFastInitiatorSession starts a single-RTT fast-path session: the
// opening frame is one msgHelloV1 carrying the protocol version, the set
// name (empty outside pbs-serve), the ToW sketches, and round 1 already
// built under the plan for the speculative bound specD. A responder that
// accepts the speculation answers estimate and round 1 (and, under
// StrongVerify, the verification digest) in one reply frame; one that
// declines re-plans from the true d̂, exactly like the legacy flow but
// one round trip earlier. opt's constraints match newInitiatorSession.
func (ss *SharedSet) newFastInitiatorSession(opt Options, onDelta func(elems []uint64, round int), name string, specD uint64) (*InitiatorSession, []Frame, error) {
	return ss.newFastInitiatorSessionFeatures(opt, onDelta, name, specD, 0, true)
}

// newFastInitiatorSessionFeatures is newFastInitiatorSession with a
// protocol-feature request folded into the hello. A non-zero features
// bitmap upgrades the hello to version 2 (want-flags in the existing flags
// field — zero extra round trips); features == 0 produces a version-1
// hello byte-identical to the pre-mux wire format. adaptive offers the
// peer adaptive round re-planning (on by default through every fast-path
// entry point; WithAdaptive(false) is the opt-out) — the offer itself is
// one flag bit and changes nothing until the peer grants it.
func (ss *SharedSet) newFastInitiatorSessionFeatures(opt Options, onDelta func(elems []uint64, round int), name string, specD uint64, features uint64, adaptive bool) (*InitiatorSession, []Frame, error) {
	if specD < 1 {
		specD = 1
	}
	if max := opt.maxD(); specD > max {
		specD = max
	}
	plan, err := syncPlan(specD, opt)
	if err != nil {
		return nil, nil, err
	}
	alice, err := core.NewAliceFromSnapshot(ss.snap, plan)
	if err != nil {
		return nil, nil, err
	}
	if onDelta != nil {
		alice.OnVerifiedDelta(onDelta)
	}
	round1, err := alice.BuildRound()
	if err != nil {
		return nil, nil, err
	}
	if round1 == nil {
		return nil, nil, fmt.Errorf("pbs: speculative plan produced no round")
	}
	est := encodeSketches(ss.towSketch())
	version := uint64(fastProtoVersion)
	if features != 0 {
		version = fastProtoVersionMux
	}
	hello := appendFastHello(nil, fastHello{
		version:      version,
		wantDigest:   opt.StrongVerify,
		wantAdaptive: adaptive,
		features:     features,
		name:         name,
		specD:        specD,
		sketches:     est,
		round1:       round1,
	})
	s := &InitiatorSession{
		opt:          opt,
		shared:       ss,
		onDelta:      onDelta,
		state:        initWantHelloReply,
		alice:        alice,
		plan:         plan,
		features:     features,
		wantAdaptive: adaptive,
		// The hello envelope (version, flags, name, d_spec, sketch) is
		// estimator overhead; the round-1 bytes are round traffic.
		estBytes:      len(hello) - len(round1),
		aliceWireBits: len(round1) * 8,
	}
	return s, []Frame{{msgHelloV1, hello}}, nil
}

// Step advances the session with one frame received from the responder.
// The returned frames must be sent to the peer even when err is non-nil
// (a failed strong verification still closes the session with msgDone) —
// so err must be checked even when done is true. When done is true and
// err is nil the exchange succeeded and Result is valid; on error Result
// returns nil.
func (s *InitiatorSession) Step(typ byte, payload []byte) (out []Frame, done bool, err error) {
	switch s.state {
	case initWantEstimateReply:
		if typ != msgEstimateReply {
			return nil, false, unexpectedType(msgEstimateReply, typ, payload)
		}
		dhat, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, false, fmt.Errorf("pbs: bad estimate reply")
		}
		if k != len(payload) {
			return nil, false, fmt.Errorf("pbs: %d trailing bytes after estimate reply", len(payload)-k)
		}
		if max := s.opt.maxD(); dhat > max {
			return nil, false, fmt.Errorf("pbs: peer estimate d̂ = %d exceeds limit %d", dhat, max)
		}
		s.dhat = dhat
		s.estBytes += len(payload)
		plan, err := syncPlan(dhat, s.opt)
		if err != nil {
			return nil, false, err
		}
		alice, err := core.NewAliceFromSnapshot(s.shared.snap, plan)
		if err != nil {
			return nil, false, err
		}
		if s.onDelta != nil {
			alice.OnVerifiedDelta(s.onDelta)
		}
		s.plan, s.alice = plan, alice
		return s.advance()

	case initWantRoundReply:
		if typ != msgRoundReply {
			return nil, false, unexpectedType(msgRoundReply, typ, payload)
		}
		if err := s.alice.AbsorbReply(payload); err != nil {
			return nil, false, err
		}
		s.rounds++
		s.bobWireBits += len(payload) * 8
		return s.advance()

	case initWantHelloReply:
		if typ != msgHelloReplyV1 {
			if typ == msgError {
				pe := parsePeerErrPayload(payload)
				if pe.Code == ErrCodeBusy {
					// Shed load, not a protocol mismatch: surface the busy
					// error directly so callers retry instead of pointlessly
					// downgrading to the legacy flow.
					return nil, false, pe
				}
				// A legacy peer (or a rejecting server) answers the fast
				// hello with msgError; surface the sentinel so callers can
				// negotiate down to the multi-RTT flow.
				return nil, false, fmt.Errorf("%w: %s", ErrFastSyncRejected, pe.Msg)
			}
			return nil, false, unexpectedType(msgHelloReplyV1, typ, payload)
		}
		rep, err := parseFastHelloReply(payload)
		if err != nil {
			return nil, false, err
		}
		switch rep.version {
		case fastProtoVersion:
			// A v1 reply to a v2 hello is the decline path: the peer speaks
			// the fast flow but grants no features; the session proceeds
			// exactly as v1.
			if rep.features != 0 {
				return nil, false, fmt.Errorf("pbs: version-1 reply carries feature grants %#x", rep.features)
			}
		case fastProtoVersionMux:
			if s.features == 0 {
				return nil, false, fmt.Errorf("pbs: peer selected protocol version %d without an offer", rep.version)
			}
			if rep.features&^s.features != 0 {
				return nil, false, fmt.Errorf("pbs: peer granted unrequested features %#x", rep.features&^s.features)
			}
		default:
			return nil, false, fmt.Errorf("pbs: peer selected unsupported protocol version %d", rep.version)
		}
		if max := s.opt.maxD(); rep.dhat > max {
			return nil, false, fmt.Errorf("pbs: peer estimate d̂ = %d exceeds limit %d", rep.dhat, max)
		}
		if rep.adaptive && !s.wantAdaptive {
			return nil, false, fmt.Errorf("pbs: peer granted adaptive re-planning without an offer")
		}
		s.adaptive = rep.adaptive
		if rep.digest != nil {
			theirs, ok := msethash.DigestFromBytes(rep.digest)
			if !ok {
				return nil, false, fmt.Errorf("pbs: malformed verification digest")
			}
			s.peerDigest, s.haveDigest = theirs, true
		}
		s.dhat = rep.dhat
		s.estBytes += len(payload) - len(rep.roundReply)
		if rep.answered {
			if s.adaptive {
				// Round 1 went out before the grant existed (always static);
				// enabling here makes every round from 2 on carry re-planned
				// (m, t) parameters, mirroring the responder exactly.
				s.alice.EnableAdaptive()
			}
			if err := s.alice.AbsorbReply(rep.roundReply); err != nil {
				return nil, false, err
			}
			s.rounds++
			s.bobWireBits += len(rep.roundReply) * 8
			return s.advance()
		}
		// Speculation declined: its payload stays on the books, then both
		// sides re-plan deterministically from the true d̂ and continue
		// with the classic round flow.
		s.specBits = s.alice.PayloadBits()
		plan, err := syncPlan(rep.dhat, s.opt)
		if err != nil {
			return nil, false, err
		}
		alice, err := core.NewAliceFromSnapshot(s.shared.snap, plan)
		if err != nil {
			return nil, false, err
		}
		if s.adaptive {
			// The fresh endpoint restarts its round numbering at 1, so its
			// first message is static and re-planning engages from round 2 —
			// the same rule the responder's fresh Bob applies.
			alice.EnableAdaptive()
		}
		if s.onDelta != nil {
			alice.OnVerifiedDelta(s.onDelta)
		}
		s.plan, s.alice = plan, alice
		return s.advance()

	case initWantVerifyReply:
		if typ != msgVerifyReply {
			return nil, false, unexpectedType(msgVerifyReply, typ, payload)
		}
		theirs, ok := msethash.DigestFromBytes(payload)
		if !ok {
			return nil, false, fmt.Errorf("pbs: malformed verification digest")
		}
		s.state = initClosed
		if s.expectedDigest() != theirs {
			// The difference just failed verification: do not leave a
			// Result claiming Complete=true reachable.
			s.res = nil
			return []Frame{{msgDone, nil}}, true, ErrVerificationFailed
		}
		return []Frame{{msgDone, nil}}, true, nil

	default:
		return nil, false, fmt.Errorf("pbs: step on a closed initiator session")
	}
}

// advance builds the next round message, or wraps the session up when the
// round budget is exhausted, reconciliation converged, or nothing is left
// to ask.
func (s *InitiatorSession) advance() ([]Frame, bool, error) {
	if s.rounds < s.plan.MaxRounds && !s.alice.Done() {
		msg, err := s.alice.BuildRound()
		if err != nil {
			return nil, false, err
		}
		if msg != nil {
			s.aliceWireBits += len(msg) * 8
			s.state = initWantRoundReply
			return []Frame{{msgRound, msg}}, false, nil
		}
	}
	return s.finish()
}

func (s *InitiatorSession) finish() ([]Frame, bool, error) {
	s.res = &Result{
		Difference: s.alice.Difference(),
		Complete:   s.alice.Done(),
		Rounds:     s.rounds,
		EstimatedD: estimator.ConservativeD(float64(s.dhat), s.opt.Gamma),
		// The initiator only knows its own payload bits exactly; the
		// peer's contribution is included in WireBytes.
		PayloadBytes:   (s.alice.PayloadBits() + s.specBits + 7) / 8,
		WireBytes:      (s.aliceWireBits+s.bobWireBits)/8 + s.estBytes,
		EstimatorBytes: s.estBytes,
		Replans:        s.alice.Replans(),
	}
	if s.opt.StrongVerify && s.res.Complete {
		if s.haveDigest {
			// Fast path: the digest rode in on the hello reply, so the
			// comparison is local and the msgVerify round trip vanishes.
			s.state = initClosed
			if s.expectedDigest() != s.peerDigest {
				s.res = nil
				return []Frame{{msgDone, nil}}, true, ErrVerificationFailed
			}
			return []Frame{{msgDone, nil}}, true, nil
		}
		s.state = initWantVerifyReply
		return []Frame{{msgVerify, nil}}, false, nil
	}
	s.state = initClosed
	return []Frame{{msgDone, nil}}, true, nil
}

// expectedDigest is the multiset-hash digest of what the responder's set
// must be if the learned difference is right: the local set with the
// difference toggled in (§2.2.3). It resumes from the shared view's cached
// whole-set digest, so only the |D̂| toggles are hashed here.
func (s *InitiatorSession) expectedDigest() msethash.Digest {
	h := msethash.FromDigest(s.opt.Seed^verifySeedTweak, s.shared.verifyDigest())
	for _, x := range s.res.Difference {
		if s.shared.snap.Contains(x) {
			h.Remove(x)
		} else {
			h.Add(x)
		}
	}
	return h.Sum()
}

// Result returns the reconciliation outcome once Step has reported done
// without an error; it is nil after a failed strong verification.
func (s *InitiatorSession) Result() *Result { return s.res }

// Rounds returns the number of completed round exchanges so far.
func (s *InitiatorSession) Rounds() int { return s.rounds }

// SharedSet is an immutable responder set prepared once and shared by any
// number of concurrent ResponderSessions. Element validation, the
// per-plan group partitions, the ToW sketch of the set, and the
// strong-verification digest are each computed a single time instead of
// per session — the difference between a server carrying N sessions and a
// server carrying N copies of its set. All methods are safe for
// concurrent use.
type SharedSet struct {
	opt  Options // defaults applied; every session inherits these
	snap *core.Snapshot
	tow  *estimator.ToW

	// Cold (evicted) hosted sets defer the snapshot: loadSnap pages the
	// elements in the first time a session actually needs them — decoding
	// a delta round — while estimates and digest verification are answered
	// from the preset sketch/digest below. count carries the element count
	// so sizing (Len, the server MaxD tightening) works without elements;
	// like loadSnap it is fixed at construction.
	loadSnap func() (*core.Snapshot, error)
	snapOnce sync.Once
	snapErr  error
	count    int

	sketchOnce sync.Once
	sketch     []int64

	digestOnce sync.Once
	digest     msethash.Digest
}

// newLazySharedSet builds a SharedSet whose ToW sketch and verification
// digest are preset from persisted metadata and whose snapshot is
// materialized by load only when a session must decode rounds. opt must
// already have defaults applied.
func newLazySharedSet(opt Options, count int, sketch []int64, digest msethash.Digest, load func() (*core.Snapshot, error)) (*SharedSet, error) {
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	if len(sketch) != tow.L() {
		return nil, fmt.Errorf("pbs: persisted sketch length %d, want %d", len(sketch), tow.L())
	}
	ss := &SharedSet{opt: opt, tow: tow, loadSnap: load, count: count}
	// Fire the Onces before the set is shared, so towSketch/verifyDigest
	// answer from the persisted values without touching the snapshot.
	ss.sketchOnce.Do(func() { ss.sketch = sketch })
	ss.digestOnce.Do(func() { ss.digest = digest })
	return ss, nil
}

// snapshot returns the materialized element snapshot, invoking loadSnap at
// most once for lazily built shared sets.
func (ss *SharedSet) snapshot() (*core.Snapshot, error) {
	ss.snapOnce.Do(func() {
		if ss.snap != nil || ss.loadSnap == nil {
			return
		}
		ss.snap, ss.snapErr = ss.loadSnap()
	})
	if ss.snapErr != nil {
		return nil, ss.snapErr
	}
	if ss.snap == nil {
		return nil, fmt.Errorf("pbs: shared set has no snapshot")
	}
	return ss.snap, nil
}

// NewSharedSet validates set once under o and prepares it for concurrent
// responder sessions.
func NewSharedSet(set []uint64, o *Options) (*SharedSet, error) {
	opt, err := o.withDefaultsValidated()
	if err != nil {
		return nil, err
	}
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	snap, err := core.NewSnapshot(set, opt.coreConfig())
	if err != nil {
		return nil, err
	}
	return &SharedSet{opt: opt, snap: snap, tow: tow}, nil
}

// Len returns the number of elements in the set.
func (ss *SharedSet) Len() int {
	if ss.loadSnap != nil {
		// Sized by the persisted count, never by peeking at snap: a session
		// is admitted (and calls Len) while a sibling pages the snapshot in.
		return ss.count
	}
	return ss.snap.Len()
}

// towSketch returns the set's ToW sketch vector, computed on first use and
// then shared read-only by every session.
func (ss *SharedSet) towSketch() []int64 {
	ss.sketchOnce.Do(func() { ss.sketch = ss.tow.Sketch(ss.snap.Elements()) })
	return ss.sketch
}

// verifyDigest returns the §2.2.3 strong-verification digest of the set,
// computed on first use.
func (ss *SharedSet) verifyDigest() msethash.Digest {
	ss.digestOnce.Do(func() {
		h := msethash.New(ss.opt.Seed ^ verifySeedTweak)
		h.AddSet(ss.snap.Elements())
		ss.digest = h.Sum()
	})
	return ss.digest
}

// NewSession returns a responder session reconciling against the shared
// set under the options the set was prepared with.
func (ss *SharedSet) NewSession() *ResponderSession {
	return ss.newResponderSession(ss.opt)
}

// newResponderSession returns a responder session under opt, which must
// agree with ss.opt on Seed, SigBits, and EstimatorSketches.
func (ss *SharedSet) newResponderSession(opt Options) *ResponderSession {
	return &ResponderSession{opt: opt, shared: ss}
}

// newServerSession is NewSession with the Server's untrusted-peer posture:
// when MaxD was left at its default it is additionally tightened relative
// to the set size, because the plan's group count (and hence the
// responder's per-session allocation) scales with d̂ rather than |S| — a
// forged estimate just under DefaultMaxD would otherwise cost a small-set
// server tens of megabytes per session. Standalone SyncResponder peers
// keep the plain default so asymmetric peer-to-peer reconciliation (tiny
// local set, huge remote difference) still works; servers that need that
// shape must set MaxD explicitly. opt is the server's protocol
// configuration (for sets registered as immutable SharedSets it is
// identical to ss.opt, which registration enforces).
func (ss *SharedSet) newServerSession(opt Options) *ResponderSession {
	if opt.MaxD == 0 {
		if cap := 64*ss.Len() + 1024; cap < DefaultMaxD {
			opt.MaxD = cap
		}
	}
	return &ResponderSession{opt: opt, shared: ss}
}

// sharedView and sessionOptions let an immutable SharedSet serve as a
// Server registry source alongside the mutable Set.
func (ss *SharedSet) sharedView() (*SharedSet, error) { return ss, nil }
func (ss *SharedSet) sessionOptions() Options         { return ss.opt }

// ResponderSession is the non-blocking responder (Bob) state machine: feed
// every received frame to Step and send back whatever it returns. A
// session serves exactly one initiator; a server shares one SharedSet
// across many sessions.
type ResponderSession struct {
	opt    Options
	shared *SharedSet
	bob    *core.Bob
	rounds int
	closed bool

	// estimated records that an estimate was answered; plan holds the
	// agreed decoding plan until the first msgRound forces Bob (and, for a
	// cold hosted set, the element snapshot) to materialize. Estimate-only
	// probes against an evicted set therefore never page elements in.
	estimated bool
	plan      core.Plan

	// release, when set, runs exactly once when the session ends (done or
	// dropped); the Server uses it to return per-tenant session slots and
	// resident-set pins.
	release func()

	// allowFeatures is the feature bitmap this session may grant to a
	// version-2 fast hello. Only the Server's connection loop sets it (it
	// owns the demultiplexer a grant commits to); everywhere else the zero
	// value declines every offer, which downgrades the reply to version 1.
	allowFeatures uint64
	granted       uint64

	// adaptive records a granted adaptive-re-planning offer. Unlike the
	// feature bits above, the grant is unconditional and identical across
	// every responder entry point (standalone, Set.Respond, Server) — it
	// commits this side to nothing beyond parsing (m, t) round headers,
	// and uniformity is what keeps the wire streams of all responder
	// flavors byte-identical for a given initiator.
	adaptive bool
	// specAccepted records that the fast hello's speculative round was
	// answered in the opening reply — the initiator's d̂ prior (or KnownD)
	// sized it right. The Server counts these as ServerStats.PriorHits.
	specAccepted bool
}

// grantedFeatures reports the feature bitmap granted to the initiator's
// version-2 hello, or zero before the hello (or when nothing was granted).
func (s *ResponderSession) grantedFeatures() uint64 { return s.granted }

// NewResponderSession starts a standalone responder session for set. For
// many concurrent sessions over one set, build a SharedSet once and use
// its NewSession instead.
func NewResponderSession(set []uint64, o *Options) (*ResponderSession, error) {
	ss, err := NewSharedSet(set, o)
	if err != nil {
		return nil, err
	}
	return ss.NewSession(), nil
}

// Step advances the session with one frame received from the initiator.
// When done is true the initiator has closed the session.
func (s *ResponderSession) Step(typ byte, payload []byte) (out []Frame, done bool, err error) {
	if s.closed {
		return nil, true, fmt.Errorf("pbs: step on a closed responder session")
	}
	switch typ {
	case msgEstimate:
		if s.estimated {
			// A mid-session re-estimate would silently discard all
			// reconciliation state; treat it as the protocol violation it is.
			return nil, false, fmt.Errorf("pbs: duplicate estimate in one session")
		}
		theirs, err := decodeSketches(payload)
		if err != nil {
			return nil, false, err
		}
		if len(theirs) != s.opt.EstimatorSketches {
			return nil, false, fmt.Errorf("pbs: peer sent %d sketches, want %d", len(theirs), s.opt.EstimatorSketches)
		}
		dhatF, err := s.shared.tow.Estimate(theirs, s.shared.towSketch())
		if err != nil {
			return nil, false, err
		}
		dhat, err := s.opt.boundEstimate(dhatF)
		if err != nil {
			return nil, false, err
		}
		plan, err := syncPlan(dhat, s.opt)
		if err != nil {
			return nil, false, err
		}
		// Bob is deferred to the first msgRound: the estimate itself is
		// answered purely from the (possibly persisted) ToW sketch, so an
		// estimate-only probe against a cold hosted set stays element-free.
		s.plan = plan
		s.estimated = true
		return []Frame{{msgEstimateReply, binary.AppendUvarint(nil, dhat)}}, false, nil

	case msgHelloV1:
		if s.estimated {
			return nil, false, fmt.Errorf("pbs: duplicate estimate in one session")
		}
		h, err := parseFastHello(payload)
		if err != nil {
			return nil, false, err
		}
		if h.version != fastProtoVersion && h.version != fastProtoVersionMux {
			// The resulting msgError is the negotiation signal: the
			// initiator maps it to ErrFastSyncRejected and can retry with
			// a protocol this responder speaks.
			return nil, false, fmt.Errorf("pbs: unsupported fast protocol version %d", h.version)
		}
		theirs, err := decodeSketches(h.sketches)
		if err != nil {
			return nil, false, err
		}
		if len(theirs) != s.opt.EstimatorSketches {
			return nil, false, fmt.Errorf("pbs: peer sent %d sketches, want %d", len(theirs), s.opt.EstimatorSketches)
		}
		dhatF, err := s.shared.tow.Estimate(theirs, s.shared.towSketch())
		if err != nil {
			return nil, false, err
		}
		dhat, err := s.opt.boundEstimate(dhatF)
		if err != nil {
			return nil, false, err
		}
		// An over-limit d_spec never sizes a plan — decline instead, which
		// also keeps a forged d_spec from buying the DoS allocation MaxD
		// exists to prevent.
		accepted := h.specD <= s.opt.maxD() && fastSpecAccepted(h.specD, dhat)
		s.adaptive = h.wantAdaptive
		planD := dhat
		if accepted {
			planD = h.specD
		}
		plan, err := syncPlan(planD, s.opt)
		if err != nil {
			return nil, false, err
		}
		s.plan = plan
		s.estimated = true
		rep := fastHelloReply{version: fastProtoVersion, dhat: dhat, adaptive: s.adaptive}
		if h.version == fastProtoVersionMux {
			// Feature grant: the intersection of what the peer offered and
			// what our driver allows (the Server sets allowFeatures on the
			// connection loop's sessions; a bare Set.Respond leaves it zero,
			// which declines every offer). Compression is only meaningful
			// inside the mux envelope, so it is never granted alone.
			granted := h.features & s.allowFeatures
			if granted&featureMux == 0 {
				granted = 0
			}
			if granted != 0 {
				rep.version = fastProtoVersionMux
				rep.features = granted
				s.granted = granted
			}
		}
		if accepted {
			// Answering the speculative round needs the bin sums, so this
			// is the point where a cold hosted set pages its elements in.
			if err := s.materialize(); err != nil {
				return nil, false, err
			}
			reply, err := s.bob.HandleRound(h.round1)
			if err != nil {
				return nil, false, err
			}
			s.rounds++
			rep.answered = true
			rep.roundReply = reply
			s.specAccepted = true
		}
		if h.wantDigest {
			rep.digest = s.shared.verifyDigest().Bytes()
		}
		return []Frame{{msgHelloReplyV1, appendFastHelloReply(nil, rep)}}, false, nil

	case msgRound:
		if !s.estimated {
			return nil, false, fmt.Errorf("pbs: round before estimation")
		}
		if err := s.materialize(); err != nil {
			return nil, false, err
		}
		reply, err := s.bob.HandleRound(payload)
		if err != nil {
			return nil, false, err
		}
		s.rounds++
		return []Frame{{msgRoundReply, reply}}, false, nil

	case msgVerify:
		return []Frame{{msgVerifyReply, s.shared.verifyDigest().Bytes()}}, false, nil

	case msgDone:
		s.closed = true
		return nil, true, nil

	case msgError:
		return nil, false, parsePeerErrPayload(payload)

	default:
		return nil, false, fmt.Errorf("pbs: unexpected message type %d", typ)
	}
}

// materialize builds Bob from the agreed plan on first need, paging the
// shared set's snapshot in if it is cold.
func (s *ResponderSession) materialize() error {
	if s.bob != nil {
		return nil
	}
	snap, err := s.shared.snapshot()
	if err != nil {
		return err
	}
	bob, err := core.NewBobFromSnapshot(snap, s.plan)
	if err != nil {
		return err
	}
	if s.adaptive {
		bob.EnableAdaptive()
	}
	s.bob = bob
	return nil
}

// adaptiveReplans reports how many served rounds ran under parameters
// re-planned away from the static plan — 0 for sessions that never
// negotiated adaptive mode (or never decoded a round). The Server
// aggregates it into ServerStats.AdaptiveReplans.
func (s *ResponderSession) adaptiveReplans() int {
	if s.bob == nil {
		return 0
	}
	return s.bob.Replans()
}

// Rounds returns the number of rounds answered so far.
func (s *ResponderSession) Rounds() int { return s.rounds }

// started reports whether the session has answered an estimate — i.e.
// reconciliation actually began, as opposed to a probe that only opened
// and closed the session.
func (s *ResponderSession) started() bool { return s.estimated }

// runRelease fires the session's release hook at most once. The Server
// attaches per-tenant session slots and resident-set pins here and calls
// this from every path that retires a session.
func (s *ResponderSession) runRelease() {
	if s.release != nil {
		r := s.release
		s.release = nil
		r()
	}
}
