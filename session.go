package pbs

import (
	"fmt"
	"math"
	"sync"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/frame"
	"pbs/internal/msethash"
)

// This file holds the non-blocking session engine behind the wire protocol:
// initiatorSession and responderSession advance one received frame at a
// time via step, returning the frames to send back. The blocking pump of
// sync.go moves their frames for Set.Sync, Set.Respond and every raw
// Server session alike, and the Server's mux demux steps many responder
// sessions on one connection, all sharing one copy of the set.
//
// The engine also hardens the protocol against hostile peers: the
// exchanged difference estimate d̂ is validated against Options.MaxD on
// both sides before it can size a Plan, a second hello mid-session is
// rejected instead of silently discarding reconciliation state, and every
// parse rejects trailing bytes.

// Seed tweaks deriving the protocol's independent hash domains from the
// shared Options.Seed. Both parties must apply identical tweaks, so every
// call site uses these constants — changing one without the other side
// silently breaks estimation or verification.
const (
	towSeedTweak    = 0x70E57 // Tug-of-War estimator hash bank
	verifySeedTweak = 0x5EC   // §2.2.3 strong-verification multiset hash
)

// oneFrame is the common shape of a step's output: a single frame.
func oneFrame(typ byte, payload []byte) []frame.Frame {
	return []frame.Frame{{Type: typ, Payload: payload}}
}

// unexpectedType reports a frame of the wrong type, surfacing a peer's
// msgError diagnostic (sanitized, with any structured code decoded) when
// that is what arrived instead.
func unexpectedType(want, got byte, payload []byte) error {
	if got == frame.MsgError {
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

// initiatorSession is the non-blocking initiator (Alice) state machine
// behind Set.Sync: send its opening hello, then feed every frame received
// from the responder to step and send whatever it returns, until done. The
// session reconciles against an immutable sharedSet view, so the validated
// snapshot, the ToW sketch, and the group partitions are all reusable
// across sessions — initiators get the same amortization servers do.
type initiatorSession struct {
	opt    Options
	shared *sharedSet
	call   initiatorCall // what this sync asked for, including its offers

	state int
	alice *core.Alice
	plan  core.Plan

	dhat          uint64
	estBytes      int
	rounds        int
	aliceWireBits int
	bobWireBits   int

	// specBits is the payload of a speculative round the responder declined
	// (still spent on the wire, so still accounted); peerDigest is the
	// responder's whole-set digest from the hello reply, which a
	// StrongVerify session compares locally at the end.
	specBits   int
	peerDigest msethash.Digest

	// adaptive records the responder's grant of the call's adaptive offer,
	// under which both endpoints re-derive (m, t) per round from the Markov
	// occupancy model.
	adaptive bool

	res *Result
}

const (
	initWantHelloReply = iota // msgHelloV1 sent, awaiting msgHelloReplyV1
	initWantRoundReply
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

// initiatorCall is what varies per sync on the initiator side.
type initiatorCall struct {
	onDelta func(elems []uint64, round int)
	// specD is the speculative difference bound the hello's round 1 is
	// built under.
	specD uint64
	// features is the protocol-feature request folded into the hello: a
	// non-zero bitmap upgrades it to version 2 (want-flags in the existing
	// flags field — zero extra round trips); zero produces a version-1 hello
	// byte-identical to the pre-mux wire format.
	features uint64
	// adaptive offers the peer adaptive round re-planning — one flag bit
	// that changes nothing until the peer grants it.
	adaptive bool
	// name is the remote set to reconcile against (empty outside pbs-serve),
	// a field of the hello.
	name string
}

// newInitiator starts an initiator session over the shared view and
// returns its opening frame: the msgHelloV1 that carries the sketches and
// round 1, already built under the plan for the speculative bound. opt
// must agree with ss.opt on Seed, SigBits, and EstimatorSketches (the
// fields the cached snapshot and sketch were built under); the remaining
// fields may vary per call.
func (ss *sharedSet) newInitiator(opt Options, c initiatorCall) (*initiatorSession, []frame.Frame, error) {
	s := &initiatorSession{opt: opt, shared: ss, call: c, state: initWantHelloReply}
	specD := min(max(c.specD, 1), opt.maxD())
	if err := s.replan(specD); err != nil {
		return nil, nil, err
	}
	round1, err := s.alice.BuildRound()
	if err != nil {
		return nil, nil, err
	}
	if round1 == nil {
		return nil, nil, fmt.Errorf("pbs: speculative plan produced no round")
	}
	version := uint64(frame.Version1)
	if c.features != 0 {
		version = frame.VersionMux
	}
	hello := frame.AppendHello(nil, frame.Hello{
		Version:      version,
		WantDigest:   opt.StrongVerify,
		WantAdaptive: c.adaptive,
		Features:     c.features,
		Name:         c.name,
		SpecD:        specD,
		Sketches:     frame.EncodeSketches(ss.towSketch()),
		Round1:       round1,
	})
	// The hello envelope (version, flags, name, d_spec, sketch) is
	// estimator overhead; the round-1 bytes are round traffic.
	s.estBytes = len(hello) - len(round1)
	s.aliceWireBits = len(round1) * 8
	return s, oneFrame(frame.MsgHelloV1, hello), nil
}

// replan derives the shared plan for d and a fresh Alice under it. Under a
// granted adaptive mode the fresh endpoint restarts its round numbering at
// 1, so its first message is static and re-planning engages from round 2 —
// the same rule the responder's fresh Bob applies.
func (s *initiatorSession) replan(d uint64) error {
	plan, err := syncPlan(d, s.opt)
	if err != nil {
		return err
	}
	alice, err := core.NewAliceFromSnapshot(s.shared.snap, plan)
	if err != nil {
		return err
	}
	if s.adaptive {
		alice.EnableAdaptive()
	}
	if s.call.onDelta != nil {
		alice.OnVerifiedDelta(s.call.onDelta)
	}
	s.plan, s.alice = plan, alice
	return nil
}

// step advances the session with one frame received from the responder.
// The returned frames must be sent to the peer even when err is non-nil
// (a failed strong verification still closes the session with msgDone) —
// so err must be checked even when done is true. When done is true and
// err is nil the exchange succeeded and res holds the outcome; after a
// failed strong verification res is nil.
func (s *initiatorSession) step(typ byte, payload []byte) (out []frame.Frame, done bool, err error) {
	switch s.state {
	case initWantHelloReply:
		if typ != frame.MsgHelloReplyV1 {
			return nil, false, unexpectedType(frame.MsgHelloReplyV1, typ, payload)
		}
		return s.helloReply(payload)

	case initWantRoundReply:
		if typ != frame.MsgRoundReply {
			return nil, false, unexpectedType(frame.MsgRoundReply, typ, payload)
		}
		if err := s.alice.AbsorbReply(payload); err != nil {
			return nil, false, err
		}
		s.rounds++
		s.bobWireBits += len(payload) * 8
		return s.advance()

	default:
		return nil, false, fmt.Errorf("pbs: step on a closed initiator session")
	}
}

// helloReply absorbs the responder's msgHelloReplyV1: the negotiated
// version and grants, d̂, the digest, and the answer to round 1 — or, when
// the speculation was declined, the re-plan from d̂.
func (s *initiatorSession) helloReply(payload []byte) ([]frame.Frame, bool, error) {
	rep, err := frame.ParseHelloReply(payload)
	if err != nil {
		return nil, false, err
	}
	switch rep.Version {
	case frame.Version1:
		// A v1 reply to a v2 hello is the decline path: the peer speaks
		// the fast flow but grants no features; the session proceeds
		// exactly as v1.
		if rep.Features != 0 {
			return nil, false, fmt.Errorf("pbs: version-1 reply carries feature grants %#x", rep.Features)
		}
	case frame.VersionMux:
		if s.call.features == 0 {
			return nil, false, fmt.Errorf("pbs: peer selected protocol version %d without an offer", rep.Version)
		}
		if rep.Features&^s.call.features != 0 {
			return nil, false, fmt.Errorf("pbs: peer granted unrequested features %#x", rep.Features&^s.call.features)
		}
	default:
		return nil, false, fmt.Errorf("pbs: peer selected unsupported protocol version %d", rep.Version)
	}
	if max := s.opt.maxD(); rep.Dhat > max {
		return nil, false, fmt.Errorf("pbs: peer estimate d̂ = %d exceeds limit %d", rep.Dhat, max)
	}
	if rep.Adaptive && !s.call.adaptive {
		return nil, false, fmt.Errorf("pbs: peer granted adaptive re-planning without an offer")
	}
	s.adaptive = rep.Adaptive
	if rep.Digest != nil {
		theirs, ok := msethash.DigestFromBytes(rep.Digest)
		if !ok {
			return nil, false, fmt.Errorf("pbs: malformed verification digest")
		}
		s.peerDigest = theirs
	} else if s.opt.StrongVerify {
		return nil, false, fmt.Errorf("pbs: hello reply carries no verification digest")
	}
	s.dhat = rep.Dhat
	s.estBytes += len(payload) - len(rep.RoundReply)
	if rep.Answered {
		if s.adaptive {
			// Round 1 went out before the grant existed (always static);
			// enabling here makes every round from 2 on carry re-planned
			// (m, t) parameters, mirroring the responder exactly.
			s.alice.EnableAdaptive()
		}
		if err := s.alice.AbsorbReply(rep.RoundReply); err != nil {
			return nil, false, err
		}
		s.rounds++
		s.bobWireBits += len(rep.RoundReply) * 8
		return s.advance()
	}
	// Speculation declined: its payload stays on the books, then both
	// sides re-plan deterministically from the true d̂ and continue with
	// msgRound.
	s.specBits = s.alice.PayloadBits()
	if err := s.replan(rep.Dhat); err != nil {
		return nil, false, err
	}
	return s.advance()
}

// advance builds the next round message, or wraps the session up when the
// round budget is exhausted, reconciliation converged, or nothing is left
// to ask.
func (s *initiatorSession) advance() ([]frame.Frame, bool, error) {
	if s.rounds < s.plan.MaxRounds && !s.alice.Done() {
		msg, err := s.alice.BuildRound()
		if err != nil {
			return nil, false, err
		}
		if msg != nil {
			s.aliceWireBits += len(msg) * 8
			s.state = initWantRoundReply
			return oneFrame(frame.MsgRound, msg), false, nil
		}
	}
	return s.finish()
}

// finish closes the session with msgDone. A complete StrongVerify session
// first compares the responder's digest from the hello reply with the one
// the learned difference implies.
func (s *initiatorSession) finish() ([]frame.Frame, bool, error) {
	s.state = initClosed
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
	if s.opt.StrongVerify && s.res.Complete && s.expectedDigest() != s.peerDigest {
		// The difference just failed verification: do not leave a Result
		// claiming Complete=true reachable.
		s.res = nil
		return oneFrame(frame.MsgDone, nil), true, ErrVerificationFailed
	}
	return oneFrame(frame.MsgDone, nil), true, nil
}

// expectedDigest is the multiset-hash digest of what the responder's set
// must be if the learned difference is right: the local set with the
// difference toggled in (§2.2.3). It resumes from the shared view's cached
// whole-set digest, so only the |D̂| toggles are hashed here.
func (s *initiatorSession) expectedDigest() msethash.Digest {
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

// sharedSet is an immutable responder set prepared once and shared by any
// number of concurrent responder sessions. Element validation, the
// per-plan group partitions, the ToW sketch of the set, and the
// strong-verification digest are each computed a single time instead of
// per session — the difference between a server carrying N sessions and a
// server carrying N copies of its set. All methods are safe for
// concurrent use.
type sharedSet struct {
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

// preset fires the sketch and digest Onces with values the caller
// maintains incrementally (or recovered from persisted metadata), before
// the set is shared, so towSketch/verifyDigest never pass over — or, for a
// lazy view, page in — the elements.
func (ss *sharedSet) preset(sketch []int64, digest msethash.Digest) *sharedSet {
	ss.sketchOnce.Do(func() { ss.sketch = sketch })
	ss.digestOnce.Do(func() { ss.digest = digest })
	return ss
}

// snapshot returns the materialized element snapshot, invoking loadSnap at
// most once for lazily built shared sets.
func (ss *sharedSet) snapshot() (*core.Snapshot, error) {
	ss.snapOnce.Do(func() {
		if ss.snap != nil || ss.loadSnap == nil {
			return
		}
		ss.snap, ss.snapErr = ss.loadSnap()
	})
	return ss.snap, ss.snapErr
}

// Len returns the number of elements in the set.
func (ss *sharedSet) len() int {
	if ss.loadSnap != nil {
		// Sized by the persisted count, never by peeking at snap: a session
		// is admitted (and calls Len) while a sibling pages the snapshot in.
		return ss.count
	}
	return ss.snap.Len()
}

// towSketch returns the set's ToW sketch vector, computed on first use and
// then shared read-only by every session.
func (ss *sharedSet) towSketch() []int64 {
	ss.sketchOnce.Do(func() { ss.sketch = ss.tow.Sketch(ss.snap.Elements()) })
	return ss.sketch
}

// verifyDigest returns the §2.2.3 strong-verification digest of the set,
// computed on first use.
func (ss *sharedSet) verifyDigest() msethash.Digest {
	ss.digestOnce.Do(func() {
		h := msethash.New(ss.opt.Seed ^ verifySeedTweak)
		h.AddSet(ss.snap.Elements())
		ss.digest = h.Sum()
	})
	return ss.digest
}

// newServerSession returns a responder session against the shared set
// with the Server's untrusted-peer posture: when MaxD was left at its default it is additionally tightened relative
// to the set size, because the plan's group count (and hence the
// responder's per-session allocation) scales with d̂ rather than |S| — a
// forged estimate just under DefaultMaxD would otherwise cost a small-set
// server tens of megabytes per session. Standalone Set.Respond peers
// keep the plain default so asymmetric peer-to-peer reconciliation (tiny
// local set, huge remote difference) still works; servers that need that
// shape must set MaxD explicitly. The session runs under the set's options,
// which for a served set are the server's.
func (ss *sharedSet) newServerSession() *responderSession {
	opt := ss.opt
	if opt.MaxD == 0 {
		if cap := 64*ss.len() + 1024; cap < DefaultMaxD {
			opt.MaxD = cap
		}
	}
	return &responderSession{opt: opt, shared: ss}
}

// responderSession is the non-blocking responder (Bob) state machine: feed
// every received frame to step and send back whatever it returns. A
// session serves exactly one initiator; a server shares one sharedSet
// across many sessions.
type responderSession struct {
	opt    Options
	shared *sharedSet
	bob    *core.Bob
	rounds int
	closed bool

	// estimated records that the hello was answered; plan holds the
	// agreed decoding plan until the first msgRound forces Bob (and, for a
	// cold hosted set, the element snapshot) to materialize. A hello whose
	// speculation is declined therefore never pages an evicted set in.
	estimated bool
	plan      core.Plan

	// allowFeatures is the feature bitmap this session may grant to a
	// version-2 fast hello. Only a Server session opened under raw framing
	// has it set (servedSession.admit): its connection owns the demux a
	// grant commits to, and a stream inside the envelope never
	// re-negotiates. Everywhere else the zero value declines every offer,
	// which downgrades the reply to version 1.
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

// step advances the session with one frame received from the initiator.
// When done is true the initiator has closed the session.
func (s *responderSession) step(typ byte, payload []byte) (out []frame.Frame, done bool, err error) {
	if s.closed {
		return nil, true, fmt.Errorf("pbs: step on a closed responder session")
	}
	switch typ {
	case frame.MsgHelloV1:
		h, err := frame.ParseHello(payload)
		if err != nil {
			return nil, false, err
		}
		return s.hello(h)

	case frame.MsgRound:
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
		return oneFrame(frame.MsgRoundReply, reply), false, nil

	case frame.MsgDone:
		s.closed = true
		return nil, true, nil

	case frame.MsgError:
		return nil, false, parsePeerErrPayload(payload)

	default:
		return nil, false, fmt.Errorf("pbs: unexpected message type %d", typ)
	}
}

// hello answers a parsed msgHelloV1: step's case for it, and the Server's
// entry point for a session's first frame, whose hello it has already
// parsed at admission to read the set name.
func (s *responderSession) hello(h frame.Hello) ([]frame.Frame, bool, error) {
	if h.Version != frame.Version1 && h.Version != frame.VersionMux {
		// The resulting msgError reaches the initiator as a *PeerError.
		return nil, false, fmt.Errorf("pbs: unsupported fast protocol version %d", h.Version)
	}
	dhat, err := s.estimate(h.Sketches)
	if err != nil {
		return nil, false, err
	}
	// An over-limit d_spec never sizes a plan — decline instead, which also
	// keeps a forged d_spec from buying the DoS allocation MaxD exists to
	// prevent.
	accepted := h.SpecD <= s.opt.maxD() && fastSpecAccepted(h.SpecD, dhat)
	s.adaptive = h.WantAdaptive
	planD := dhat
	if accepted {
		planD = h.SpecD
	}
	if s.plan, err = syncPlan(planD, s.opt); err != nil {
		return nil, false, err
	}
	s.estimated = true
	rep := frame.HelloReply{Version: frame.Version1, Dhat: dhat, Adaptive: s.adaptive}
	if h.Version == frame.VersionMux {
		// Feature grant: the intersection of what the peer offered and what
		// our driver allows (allowFeatures; a bare Set.Respond leaves it
		// zero, which declines every offer). Mux is the one grantable
		// feature; a FeatureLZ offer is never granted.
		if granted := h.Features & s.allowFeatures; granted&frame.FeatureMux != 0 {
			rep.Version, rep.Features, s.granted = frame.VersionMux, granted, granted
		}
	}
	if accepted {
		// Answering the speculative round needs the bin sums, so this is
		// the point where a cold hosted set pages its elements in.
		if err := s.materialize(); err != nil {
			return nil, false, err
		}
		reply, err := s.bob.HandleRound(h.Round1)
		if err != nil {
			return nil, false, err
		}
		s.rounds++
		rep.Answered, rep.RoundReply = true, reply
		s.specAccepted = true
	}
	if h.WantDigest {
		rep.Digest = s.shared.verifyDigest().Bytes()
	}
	return oneFrame(frame.MsgHelloReplyV1, frame.AppendHelloReply(nil, rep)), false, nil
}

// estimate answers the peer's encoded sketch vector with the rounded,
// bounded d̂ — once per session: a second hello mid-session would silently
// discard all reconciliation state, so it is the protocol violation it is.
func (s *responderSession) estimate(sketches []byte) (uint64, error) {
	if s.estimated {
		return 0, fmt.Errorf("pbs: duplicate estimate in one session")
	}
	theirs, err := frame.DecodeSketches(sketches)
	if err != nil {
		return 0, err
	}
	if len(theirs) != s.opt.EstimatorSketches {
		return 0, fmt.Errorf("pbs: peer sent %d sketches, want %d", len(theirs), s.opt.EstimatorSketches)
	}
	dhatF, err := s.shared.tow.Estimate(theirs, s.shared.towSketch())
	if err != nil {
		return 0, err
	}
	return s.opt.boundEstimate(dhatF)
}

// materialize builds Bob from the agreed plan on first need, paging the
// shared set's snapshot in if it is cold.
func (s *responderSession) materialize() error {
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
func (s *responderSession) adaptiveReplans() int {
	if s.bob == nil {
		return 0
	}
	return s.bob.Replans()
}

// payloadBits returns the protocol-payload bits the session's Bob has sent —
// 0 if it never answered a round.
func (s *responderSession) payloadBits() int {
	if s.bob == nil {
		return 0
	}
	return s.bob.PayloadBits()
}

// started reports whether the session has answered a hello — i.e.
// reconciliation actually began, as opposed to a probe that only opened
// and closed the session.
func (s *responderSession) started() bool { return s.estimated }
