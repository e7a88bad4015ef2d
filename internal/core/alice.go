package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pbs/internal/bch"
	"pbs/internal/hashutil"
	"pbs/internal/markov"
	"pbs/internal/wire"
)

// Alice is the endpoint that learns the set difference. She initiates every
// round by sending BCH codewords of her parity bitmaps (Line 1 of
// Procedure 2) and finishes it by recovering distinct elements from Bob's
// reply and verifying checksums (Lines 4–5).
type Alice struct {
	plan    Plan
	sd      seeds
	sigMask uint64

	active []*aliceScope
	round  int

	// table is the snapshot's round-one table for this plan's shape, nil
	// when the snapshot keeps none. Round 1 over it reads each group's bin
	// sums and parities from its row, folding only the group's lag on top.
	table *foldTable

	// learned holds the verified scopes' share of the difference
	// D̂1 △ D̂2 △ ...; the rest of it is the active scopes' over layers.
	learned []uint64

	// onDelta, when set, is invoked at the end of each AbsorbReply with the
	// elements of every scope that passed checksum verification in that
	// round — the piecewise-reconciliability property (§3) surfaced as an
	// event stream: group pairs deliver their differences as they verify,
	// not when the whole session completes.
	onDelta func(elems []uint64, round int)
	// onSide, when set, is invoked for each verified difference element
	// with whether Alice's set holds it (see OnVerifiedSide).
	onSide func(x uint64, held bool)

	payloadBits  int
	sketchesSent int
	awaiting     bool // a round message was built and its reply is pending

	// Adaptive per-round re-planning (negotiated; see EnableAdaptive).
	// curM/curT are the parameters of the round currently in flight; they
	// start at the plan's values and, from round 2 on, are re-chosen per
	// round from the Markov occupancy model.
	adaptive bool
	curM     uint
	curT     int
	replans  int

	encodeTime time.Duration // time spent building bitmaps and codewords
	decodeTime time.Duration // time spent recovering and verifying elements

	// scr is the session's scratch, nil once the session has completed (see
	// aliceScratch).
	scr *aliceScratch
}

// aliceScratch is the reusable storage of one session: flat slabs the
// rounds re-slice to their shape, so that in steady state a round — of this
// session or of the next — allocates per message, not per scope.
// NewAliceFromSnapshot draws it from a process-wide pool and the AbsorbReply
// that verifies the last scope hands it back; an abandoned session leaves
// its scratch to the collector. scopes is the session's scope array, one a
// group; syn holds the round's syndromes, t words per active scope, and sums
// its bin XOR sums, n+1 words per active scope, which the scopes keep from
// BuildRound to AbsorbReply (round 1 over a table reads the row of a group
// with no lag instead); parity is a packed bitmap per worker. pos, xor and
// accepted hold a reply's positions, XOR sums and accepted elements back to
// back, each scope owning the stretch [lo, hi) its parsed slot names;
// parsed, outcomes and errs are AbsorbReply's per-scope slots.
type aliceScratch struct {
	scopes   []aliceScope
	syn      []uint64
	sums     []uint64
	parity   [][]uint64
	pos      []uint64
	xor      []uint64
	accepted []uint64
	parsed   []aliceParsedScope
	outcomes []aliceScopeOutcome
	errs     scopeErrors
}

var aliceScratchPool = sync.Pool{New: func() any { return new(aliceScratch) }}

// EncodeTime returns the cumulative time Alice spent encoding (hash
// partitioning, parity bitmaps, BCH codewords). Parallel-phase work is
// summed across workers, so under Parallelism > 1 this tracks CPU time,
// not wall time — the same convention as Bob.
func (a *Alice) EncodeTime() time.Duration { return a.encodeTime }

// DecodeTime returns the cumulative time Alice spent recovering distinct
// elements and verifying checksums, summed across workers like EncodeTime.
func (a *Alice) DecodeTime() time.Duration { return a.decodeTime }

// aliceScope is Alice's per-scope state: the working set W (initially her
// group subset, thereafter W △ D̂ after every round, §2.4) plus its
// incremental checksum. W is an elemSet whose over layer holds what this
// session has toggled, so it doubles as the scope's contribution to the
// learned difference: its elements always lie in the scope's sub-universe
// (acceptRecovered enforces the group and split path), and when the scope
// verifies it is exactly the scope's share of A△B.
type aliceScope struct {
	id       scopeID
	w        elemSet
	checksum uint64 // c(W), maintained incrementally

	// Round-scoped, saved between BuildRound and AbsorbReply: binSums is a
	// stretch of the scratch's sums slab or a row of the snapshot's round-one
	// table, read-only either way once folded.
	binSums []uint64
	binSeed uint64

	// loadHint is the adaptive re-planner's upper estimate of how many
	// unreconciled distinct elements this scope still holds, set when the
	// scope survives a round with its checksum unverified; splitFresh
	// marks a just-created split child, whose load is unknown — it forces
	// the next round back onto the static plan (see replanRound).
	loadHint   int
	splitFresh bool
}

// NewAlice creates the Alice endpoint for the given set under plan.
// Elements must be nonzero and fit in plan.SigBits bits. It is the
// single-session path over the same machinery a long-lived set shares: a
// private Snapshot validated and partitioned for this one plan.
func NewAlice(set []uint64, plan Plan) (*Alice, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	snap, err := NewSnapshot(set, Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		return nil, err
	}
	return NewAliceFromSnapshot(snap, plan)
}

// NewAliceFromSnapshot creates an Alice endpoint over a pre-validated
// shared Snapshot. Nothing is copied and nothing is passed over: every scope
// starts as the snapshot's group with nothing toggled, its checksum read
// from the group's slot in the cached shape. The plan's Seed and SigBits
// must match the snapshot's.
func NewAliceFromSnapshot(snap *Snapshot, plan Plan) (*Alice, error) {
	if err := snap.checkPlan(plan); err != nil {
		return nil, err
	}
	a := &Alice{
		plan:    plan,
		sd:      snap.sd,
		sigMask: sigMask(plan.SigBits),
		curM:    plan.M,
		curT:    plan.T,
	}
	part := snap.partitionFor(plan)
	a.table = part.table
	// A pooled scope array is all zero: its last session cleared what it used.
	a.scr = aliceScratchPool.Get().(*aliceScratch)
	a.scr.scopes = resized(a.scr.scopes, plan.Groups)
	a.active = make([]*aliceScope, plan.Groups)
	for g := range a.scr.scopes {
		sc := &a.scr.scopes[g]
		sc.id, sc.w, sc.checksum = newScopeID(g), part.group(g), part.groups[g].check
		a.active[g] = sc
	}
	return a, nil
}

// OnVerifiedDelta registers fn to receive each round's newly verified
// difference elements (see the onDelta field). It must be called before the
// first BuildRound; elements toggled before the handler is installed would
// not be tracked. fn is invoked from AbsorbReply's sequential merge phase —
// never concurrently — with a batch it may retain; batches are sorted, and
// rounds that verify no new elements produce no call.
func (a *Alice) OnVerifiedDelta(fn func(elems []uint64, round int)) {
	if a.round > 0 {
		panic("core: OnVerifiedDelta installed mid-session")
	}
	a.onDelta = fn
}

// OnVerifiedSide registers fn to receive each verified difference element
// with held, whether Alice's set holds it (so Bob's lacks it): two binary
// searches in the verifying scope's base and lag, made only while a handler
// is installed. It must be called before the first BuildRound. fn is invoked
// from AbsorbReply's sequential merge phase, never concurrently, in no
// particular order.
func (a *Alice) OnVerifiedSide(fn func(x uint64, held bool)) {
	if a.round > 0 {
		panic("core: OnVerifiedSide installed mid-session")
	}
	a.onSide = fn
}

func sigMask(bits uint) uint64 {
	if bits == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// EnableAdaptive switches the session to adaptive per-round re-planning:
// from round 2 on, BuildRound re-chooses the bitmap degree and BCH
// capacity for each round from the Markov occupancy model (markov.Replan)
// using the surviving scopes' load estimates, and prefixes the round
// message with the chosen (m, t). Both endpoints must agree — the peer Bob
// must have EnableAdaptive called too — and it must be enabled before the
// second round is built. Round 1 always uses the static plan, so the
// fast-sync speculative round (built before the peer's capabilities are
// known) is unaffected.
func (a *Alice) EnableAdaptive() { a.adaptive = true }

// Replans returns how many rounds were adaptively re-planned away from
// the static plan's parameters.
func (a *Alice) Replans() int { return a.replans }

// recoverWork weighs one recovered element — three hashes and as many
// binary searches — in the folded elements workersFor counts in.
const recoverWork = 32

// survivorLoad is the load estimate for a scope whose BCH decoding
// succeeded but whose checksum did not verify: the stragglers are the
// elements that shared bins (type (I) exceptions, §2.3), overwhelmingly a
// collision pair or two plus margin for a rare fake-element pass.
const survivorLoad = 4

// replanRound re-chooses (curM, curT) for the round about to be built.
//
// Rounds containing fresh split children replay the static plan: a split
// means the plan's capacity was just overrun, so the load estimates are
// unreliable in exactly the way that matters, and the plan's generous t is
// the safe, known-runnable choice. Survivor-only rounds (checksum-failed
// scopes whose decoding succeeded — the steady-state exception path) are
// re-planned, with two guards that keep the deviation a strict
// improvement over replaying the plan:
//
//   - The success target is the static plan's own one-round success at
//     this load, not an absolute bound. With capacity t ≥ load, success
//     depends only on the bitmap size, so demanding an absolute 0.99
//     would inflate the bitmap well past the plan's when the plan itself
//     tolerates a retry — paying more bits for fewer expected rounds the
//     replay never promised.
//   - The deviation must be strictly cheaper than the replay's
//     (t + load)·m bits; otherwise the round replays the plan. Survivor
//     capacity t ≈ load + 2, not the plan's t sized for 2.5δ errors, is
//     where the savings come from — dramatic when the plan was built for
//     a large d.
func (a *Alice) replanRound() {
	load := 0
	for _, sc := range a.active {
		if sc.splitFresh {
			a.curM, a.curT = a.plan.M, a.plan.T
			return
		}
		load = max(load, sc.loadHint)
	}
	if load < 1 {
		load = 1
	}
	target := DefaultTargetSuccess
	if c, err := markov.NewChain((uint64(1)<<a.plan.M)-1, a.plan.T); err == nil {
		if p := c.SuccessProb(load, 1); p < target {
			target = p
		}
	}
	p, err := markov.Replan(load, 1, target)
	if err != nil || p.BitsPerGroup >= (a.plan.T+load)*int(a.plan.M) {
		a.curM, a.curT = a.plan.M, a.plan.T
		return
	}
	if p.M != a.plan.M || p.T != a.plan.T {
		a.replans++
	}
	a.curM, a.curT = p.M, p.T
}

// Done reports whether every scope has passed checksum verification.
func (a *Alice) Done() bool { return len(a.active) == 0 && !a.awaiting }

// Rounds returns the number of rounds started so far.
func (a *Alice) Rounds() int { return a.round }

// PayloadBits returns the cumulative protocol-payload bits Alice has sent
// (BCH codewords), excluding message framing.
func (a *Alice) PayloadBits() int { return a.payloadBits }

// SketchesSent returns how many per-scope BCH codewords Alice has sent.
func (a *Alice) SketchesSent() int { return a.sketchesSent }

// Difference returns the learned estimate of A△B accumulated so far. After
// Done() it is exactly A△B (barring the O(2^−sigBits) false-verification
// event analysed in §2.2.3).
func (a *Alice) Difference() []uint64 {
	out := slices.Clone(a.learned)
	for _, sc := range a.active {
		out = append(out, sc.w.over...)
	}
	return out
}

// BuildRound builds the next round message for Bob: one scope descriptor
// plus BCH codeword per active scope. It returns nil when reconciliation
// has completed. Per-scope encoding (bin folding and sketch construction)
// fans out across the plan's worker pool; serialization stays in scope
// order, so the message bytes do not depend on Parallelism.
func (a *Alice) BuildRound() ([]byte, error) {
	if a.awaiting {
		return nil, fmt.Errorf("core: BuildRound called with a reply outstanding")
	}
	if len(a.active) == 0 {
		return nil, nil
	}
	a.round++
	if a.adaptive && a.round >= 2 {
		a.replanRound()
	}
	n := (uint64(1) << a.curM) - 1
	// Round 1 finds every scope a whole group with nothing toggled yet:
	// what the round-one table holds, once each group's lag is folded on
	// top of its row.
	useTable := a.round == 1 && a.table != nil
	work := len(a.active) * int(n+1)
	for _, sc := range a.active {
		if useTable {
			work += len(sc.w.lag)
		} else {
			work += sc.w.len()
		}
	}
	nw := a.plan.workersFor(work)
	shape, err := bch.View(a.curM, a.curT, nil)
	if err != nil {
		return nil, err
	}
	// Re-slice the scratch to this round's shape; in steady state nothing
	// below allocates, whatever (m, t) the last round or session ran at.
	s, t, stride := a.scr, a.curT, int(n+1)
	s.syn = resized(s.syn, len(a.active)*t)
	s.sums = resized(s.sums, len(a.active)*stride)
	if !useTable {
		clear(s.sums)
	}
	for len(s.parity) < nw {
		s.parity = append(s.parity, nil)
	}
	a.encodeTime += forEachScope(nw, len(a.active), func(worker, i int) {
		sc := a.active[i]
		sc.binSeed = a.sd.binSeed(sc.id, a.round)
		sums := s.sums[i*stride : (i+1)*stride]
		parity := resized(s.parity[worker], int(parityWords(n)))
		s.parity[worker] = parity
		if useTable {
			sc.binSums, parity = a.table.rows[sc.id.group].withLag(sc.w.lag, sc.binSeed, n, sums, parity)
		} else {
			clear(parity)
			sc.w.fold(sc.binSeed, n, sums, parity)
			sc.binSums = sums
		}
		sketch := shape.Over(s.syn[i*t:])
		sketch.Reset()
		sketch.AddBitmap(parity)
	})
	serStart := time.Now()
	// A scope costs its codeword and an ID of some 20 bits; deeper split
	// paths than that allows for just grow the buffer.
	w := wire.NewWriterSize(64 + len(a.active)*(shape.Bits()+32))
	w.WriteUvarint(uint64(a.round))
	if a.adaptive && a.round >= 2 {
		// Adaptive rounds carry their own parameters: the static plan no
		// longer predicts them. Round 1 never does — it is built before the
		// adaptive grant can be known — so both endpoints key on the round
		// number alone.
		w.WriteUvarint(uint64(a.curM))
		w.WriteUvarint(uint64(a.curT))
	}
	w.WriteUvarint(uint64(len(a.active)))
	for i, sc := range a.active {
		writeScopeID(w, sc.id)
		sketch := shape.Over(s.syn[i*t:])
		sketch.AppendTo(w)
	}
	a.payloadBits += len(a.active) * shape.Bits()
	a.sketchesSent += len(a.active)
	a.awaiting = true
	a.encodeTime += time.Since(serStart)
	return w.Bytes(), nil
}

// aliceParsedScope is one scope's slice of Bob's reply, parsed off the
// sequential bit stream before the parallel processing phase.
type aliceParsedScope struct {
	ok     bool // BCH decoding succeeded on Bob's side
	lo, hi int  // the scope's stretch of the scratch's pos, xor and accepted
	bobCk  uint64
}

// aliceScopeOutcome is the result of processing one scope's reply slice:
// the accepted recovered elements (not yet applied — the sequential merge
// phase toggles them into the working set and the global difference
// together), the checksum the working set will have once they are, the
// verdict on it, and — for BCH decoding failures — the 3-way split
// children.
type aliceScopeOutcome struct {
	accepted []uint64
	checksum uint64
	verified bool
	splits   []*aliceScope
}

// AbsorbReply processes Bob's reply to the message built by the last
// BuildRound call: it recovers distinct elements per scope (Procedure 1),
// discards fake distinct elements (Procedure 3), toggles the recovered
// elements into the working sets and the global difference, verifies
// checksums, and queues 3-way splits for scopes whose BCH decoding failed.
//
// The reply is parsed sequentially (the bit stream has no random access),
// the per-scope recovery and verification fan out read-only across the
// worker pool, and all state mutation — working sets, checksums, the
// global difference, the next-round scope list — happens in a sequential
// merge in scope order, keeping the session deterministic for any
// Parallelism and untouched when a malformed reply aborts the round.
func (a *Alice) AbsorbReply(reply []byte) error {
	if !a.awaiting {
		return fmt.Errorf("core: AbsorbReply without an outstanding round")
	}
	a.awaiting = false
	n := (uint64(1) << a.curM) - 1 // the in-flight round's bitmap size
	seqStart := time.Now()
	r := wire.NewReader(reply)
	scr := a.scr
	scr.parsed = resized(scr.parsed, len(a.active))
	parsed := scr.parsed
	positions, xors := scr.pos[:0], scr.xor[:0]
	for i := range parsed {
		p := &parsed[i]
		*p = aliceParsedScope{lo: len(positions), hi: len(positions)}
		ok, err := r.ReadBool()
		if err != nil {
			return fmt.Errorf("core: truncated reply: %w", err)
		}
		p.ok = ok
		if !ok {
			continue
		}
		count, err := r.ReadUvarint()
		if err != nil {
			return fmt.Errorf("core: truncated reply: %w", err)
		}
		if count > n {
			return fmt.Errorf("core: reply position count %d exceeds bitmap size", count)
		}
		for j := uint64(0); j < count; j++ {
			v, err := r.ReadBits(a.curM)
			if err != nil {
				return fmt.Errorf("core: truncated reply: %w", err)
			}
			positions = append(positions, v)
		}
		for j := uint64(0); j < count; j++ {
			v, err := r.ReadBits(a.plan.SigBits)
			if err != nil {
				return fmt.Errorf("core: truncated reply: %w", err)
			}
			xors = append(xors, v)
		}
		p.hi = len(positions)
		if p.bobCk, err = r.ReadBits(a.plan.SigBits); err != nil {
			return fmt.Errorf("core: truncated reply: %w", err)
		}
	}
	scr.pos, scr.xor = positions, xors
	scr.accepted = resized(scr.accepted, len(positions))

	// The parallel phase is strictly read-only on session state: workers
	// compute accepted elements, the would-be checksum, and split children
	// without mutating anything, so an error below leaves the session
	// exactly as it was (no half-applied round).
	scr.outcomes = resized(scr.outcomes, len(a.active))
	outcomes := scr.outcomes
	errs := &scr.errs
	errs.reset(len(a.active))
	work := 0
	for i, sc := range a.active {
		if parsed[i].ok {
			work += (parsed[i].hi - parsed[i].lo) * recoverWork
		} else {
			work += sc.w.len()
		}
	}
	a.decodeTime += time.Since(seqStart)
	a.decodeTime += forEachScope(a.plan.workersFor(work), len(a.active), func(_, i int) {
		sc := a.active[i]
		p := &parsed[i]
		out := &outcomes[i]
		*out = aliceScopeOutcome{accepted: scr.accepted[p.lo:p.lo:p.hi]}
		if !p.ok {
			// BCH decoding failure (§3.2): split three ways for next round.
			out.splits = a.splitScope(sc)
			return
		}
		// The one membership test an accepted element gets: the merge installs
		// the checksum it yields and toggles the element without asking again.
		// Ascending positions — which is how Bob's decoder lists them — make
		// the accepted elements distinct, so each toggles against W as the
		// round found it.
		ck, prev := sc.checksum, uint64(0)
		for j := p.lo; j < p.hi; j++ {
			pos := positions[j]
			if pos == 0 || pos > n {
				errs.set(i, fmt.Errorf("core: reply position %d out of range", pos))
				return
			}
			if pos <= prev {
				errs.set(i, fmt.Errorf("core: reply positions not ascending at %d", pos))
				return
			}
			prev = pos
			s := sc.binSums[pos] ^ xors[j]
			if !a.acceptRecovered(sc, s, pos) {
				continue
			}
			ck = checksumToggle(ck, s, sc.w.contains(s), a.sigMask)
			out.accepted = append(out.accepted, s)
		}
		// Verified scopes are reconciled subset pairs (§2.2.3).
		out.checksum, out.verified = ck, ck == p.bobCk
	})
	if err := errs.first(); err != nil {
		return err
	}

	seqStart = time.Now()
	var next []*aliceScope
	var delta []uint64
	// A scope accepts at most its reply's positions, so one array has room
	// for every scope's over layer after this round's toggles, and learned
	// grows once.
	room := len(positions)
	for _, sc := range a.active {
		room += len(sc.w.over)
	}
	overs := make([]uint64, 0, room)
	a.learned = slices.Grow(a.learned, room)
	for i, sc := range a.active {
		out := &outcomes[i]
		start, end := len(overs), len(overs)+len(sc.w.over)+parsed[i].hi-parsed[i].lo
		overs = append(overs, sc.w.over...)
		sc.w.over, overs = overs[start:len(overs):end], overs[:end]
		if out.splits != nil {
			for _, child := range out.splits {
				child.splitFresh = true
			}
			next = append(next, out.splits...)
			out.splits = nil // the pooled scratch must not keep scopes alive
			continue
		}
		for _, s := range out.accepted {
			sc.toggle(s)
		}
		sc.checksum = out.checksum
		if out.verified {
			// The scope's toggles just passed verification: they are
			// confirmed difference elements, deliverable now.
			a.learned = append(a.learned, sc.w.over...)
			if a.onDelta != nil {
				delta = append(delta, sc.w.over...)
			}
			if a.onSide != nil {
				for _, x := range sc.w.over {
					a.onSide(x, inSorted(sc.w.base, x) != inSorted(sc.w.lag, x))
				}
			}
		} else {
			sc.loadHint = survivorLoad
			sc.splitFresh = false
			next = append(next, sc)
		}
	}
	a.active = next
	if len(next) == 0 {
		// Every scope has verified and nothing points into the scope array
		// any more; zeroed, it pins no snapshot from the pool.
		clear(scr.scopes)
		a.scr = nil
		aliceScratchPool.Put(scr)
	}
	if len(delta) > 0 {
		// Sorted across scopes, as the callback's contract promises.
		slices.Sort(delta)
		a.onDelta(delta, a.round)
	}
	a.decodeTime += time.Since(seqStart)
	return nil
}

// acceptRecovered applies the fake-distinct-element checks: the recovered
// s must be a valid universe element, must hash into the bin it was
// recovered from (Procedure 3), and must belong to this scope's group and
// split path (the sub-universe membership condition).
func (a *Alice) acceptRecovered(sc *aliceScope, s uint64, pos uint64) bool {
	if s == 0 || s&^a.sigMask != 0 {
		return false
	}
	if hashutil.Bin(s, sc.binSeed, (uint64(1)<<a.curM)-1) != pos {
		return false
	}
	if a.sd.groupOf(s, a.plan.Groups) != sc.id.group {
		return false
	}
	cur := newScopeID(sc.id.group)
	for i := 0; i < len(sc.id.path); i++ {
		if a.sd.childOf(s, cur) != int(sc.id.path[i]-'0') {
			return false
		}
		cur = cur.child(int(sc.id.path[i] - '0'))
	}
	return true
}

// toggle applies s to the scope's working set (W ← W △ {s}) by flipping it
// in the over layer, which is also the scope's share of the learned
// difference; the checksum is the caller's, worked out by the round's worker.
// It runs only in the sequential merge phase so a malformed reply that
// aborts a round leaves nothing half-applied.
func (sc *aliceScope) toggle(s uint64) {
	if i, in := slices.BinarySearch(sc.w.over, s); in {
		sc.w.over = slices.Delete(sc.w.over, i, i+1)
	} else {
		sc.w.over = slices.Insert(sc.w.over, i, s)
	}
}

// splitScope partitions sc's working set into splitWays children.
// Unconfirmed toggles follow their elements: each verifies (and is emitted)
// with whichever child its sub-universe hash lands it in.
func (a *Alice) splitScope(sc *aliceScope) []*aliceScope {
	children := make([]*aliceScope, splitWays)
	for i, w := range sc.w.split(a.sd, sc.id) {
		children[i] = &aliceScope{id: sc.id.child(i), w: w, checksum: w.checksum(a.sigMask)}
	}
	return children
}

func writeScopeID(w *wire.Writer, id scopeID) {
	w.WriteUvarint(uint64(id.group))
	w.WriteUvarint(uint64(len(id.path)))
	for i := 0; i < len(id.path); i++ {
		w.WriteBits(uint64(id.path[i]-'0'), 2)
	}
}

func readScopeID(r *wire.Reader) (scopeID, error) {
	g, err := r.ReadUvarint()
	if err != nil {
		return scopeID{}, err
	}
	plen, err := r.ReadUvarint()
	if err != nil {
		return scopeID{}, err
	}
	if plen > 64 {
		return scopeID{}, fmt.Errorf("core: absurd split depth %d", plen)
	}
	path := make([]byte, plen)
	for i := range path {
		c, err := r.ReadBits(2)
		if err != nil {
			return scopeID{}, err
		}
		if c >= splitWays {
			return scopeID{}, fmt.Errorf("core: split child %d out of range", c)
		}
		path[i] = byte('0' + c)
	}
	return makeScopeID(int(g), string(path)), nil
}
