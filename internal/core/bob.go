package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pbs/internal/bch"
	"pbs/internal/wire"
)

// Bob is the responding endpoint. Each round he decodes Alice's BCH
// codewords against his local parity bitmaps to locate the differing bit
// positions (Line 2 of Procedure 2) and replies with those positions, the
// XOR sums of his corresponding subsets, and his per-scope checksums
// (Line 3).
type Bob struct {
	plan    Plan
	snap    *Snapshot
	sd      seeds
	sigMask uint64

	// part holds Bob's elements partitioned by group — stable across
	// rounds because the group hash never changes — with each group's
	// checksum, the later-round rows the snapshot keeps and, when it keeps
	// one for the plan's shape, the round-one table with each group's
	// round-1 fold.
	part partition
	// scopeSets caches the element sets of split scopes.
	scopeSets map[scopeID]elemSet

	payloadBits   int
	positionsSent int
	checksumsSent int

	encodeTime time.Duration // building bitmaps, XOR sums, and sketches
	decodeTime time.Duration // BCH decoding

	// Adaptive per-round re-planning (negotiated; see EnableAdaptive):
	// rounds >= 2 carry their own (m, t) in the round header.
	adaptive bool
	replans  int
}

// EnableAdaptive tells Bob to expect adaptive round headers: every round
// message with round number >= 2 carries its own (m, t) ahead of the scope
// count. Must match the peer Alice's EnableAdaptive.
func (b *Bob) EnableAdaptive() { b.adaptive = true }

// Replans returns how many rounds Bob served whose adaptive header chose
// parameters different from the static plan.
func (b *Bob) Replans() int { return b.replans }

// EncodeTime returns the cumulative time Bob spent encoding (hash
// partitioning, parity bitmaps, XOR sums, BCH sketches).
func (b *Bob) EncodeTime() time.Duration { return b.encodeTime }

// DecodeTime returns the cumulative time Bob spent in BCH decoding.
func (b *Bob) DecodeTime() time.Duration { return b.decodeTime }

// NewBob creates the Bob endpoint for the given set under plan. It is the
// single-session path over the same machinery a server shares: a private
// Snapshot validated and partitioned for this one plan.
func NewBob(set []uint64, plan Plan) (*Bob, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	snap, err := NewSnapshot(set, Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		return nil, err
	}
	return NewBobFromSnapshot(snap, plan)
}

// PayloadBits returns the cumulative protocol-payload bits Bob has sent
// (positions, XOR sums, checksums), excluding message framing.
func (b *Bob) PayloadBits() int { return b.payloadBits }

// PositionsSent returns how many (position, XOR sum) pairs Bob has sent.
func (b *Bob) PositionsSent() int { return b.positionsSent }

// ChecksumsSent returns how many per-scope checksums Bob has sent.
func (b *Bob) ChecksumsSent() int { return b.checksumsSent }

// scopeSet returns Bob's elements belonging to the given scope, computing
// and caching split-scope subsets on demand.
func (b *Bob) scopeSet(id scopeID) elemSet {
	if id.path == "" {
		return b.part.group(id.group)
	}
	if s, ok := b.scopeSets[id]; ok {
		return s
	}
	parent := makeScopeID(id.group, id.path[:len(id.path)-1])
	parentSet := b.scopeSet(parent)
	// Partition the parent into all children at once so sibling lookups hit
	// the cache.
	for i, set := range parentSet.split(b.sd, parent) {
		b.scopeSets[parent.child(i)] = set
	}
	return b.scopeSets[id]
}

// bobScopeJob is one scope's decoded request: everything the parallel
// phase needs, resolved off the sequential bit stream (and the lazily
// partitioned scope-set cache) up front. Alice's codeword for job i is the
// i-th stretch of the scratch's syn slab.
type bobScopeJob struct {
	id    scopeID
	set   elemSet
	seed  uint64
	row   *foldRow // the whole group's kept row for the round, nil to fold set whole
	offer bool     // fold a whole group's base apart, to offer it as a row (see foldKept)
}

// bobScopeReply is one scope's computed answer, held until the sequential
// serialization phase writes it in scope order.
type bobScopeReply struct {
	ok        bool     // BCH decoding succeeded
	positions []uint64 // differing bitmap positions
	xors      []uint64 // Bob's per-bin XOR sums at those positions
	checksum  uint64   // c(B_s)
}

// bobScratch is HandleRound's reusable scratch, drawn from a process-wide
// pool for the length of one call — a reply is fully serialized before the
// call returns, so nothing in it outlives the round — so that in steady
// state a round, of this session or the next, allocates its reply and
// nothing per scope. Three flat slabs, re-sliced to the round's t words a
// scope whatever shape the last round had: syn takes Alice's codewords off
// the wire and becomes, in place, their XOR with Bob's; pos and xor hold
// each scope's reply (a decode yields at most t positions) until
// serialization.
type bobScratch struct {
	workers []bobWorker
	syn     []uint64
	pos     []uint64
	xor     []uint64
	jobs    []bobScopeJob
	replies []bobScopeReply
}

var bobScratchPool = sync.Pool{New: func() any { return new(bobScratch) }}

// bobWorker is per-worker state: the bin-fold buffers (cleared per scope
// instead of reallocated, which matters at large g), the BCH decode
// workspace, and the worker's accumulated decode time, folded into the Bob
// totals (and zeroed) after each parallel phase joins.
type bobWorker struct {
	sums   []uint64
	parity []uint64
	dec    bch.Decoder
	decDur time.Duration
}

// HandleRound processes one round message from Alice and returns the reply.
// Scope requests are parsed sequentially, the per-scope bin folding, BCH
// sketching, and decoding fan out across the plan's worker pool, and the
// reply is serialized in scope order — so the reply bytes are identical
// for every Parallelism setting.
func (b *Bob) HandleRound(msg []byte) ([]byte, error) {
	r := wire.NewReader(msg)
	round, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: bad round header: %w", err)
	}
	m, t := b.plan.M, b.plan.T
	if b.adaptive && round >= 2 {
		mv, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("core: bad adaptive round header: %w", err)
		}
		tv, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("core: bad adaptive round header: %w", err)
		}
		// Bound what a peer can make this side allocate: the per-worker
		// bin-sum and parity buffers are (n+1)-sized and BCH decoding is
		// superlinear in t.
		if mv < 2 || mv > maxAdaptiveM {
			return nil, fmt.Errorf("core: adaptive bitmap degree m=%d out of range", mv)
		}
		an := (uint64(1) << mv) - 1
		if tv < 1 || tv > an/2 || tv > maxAdaptiveT {
			return nil, fmt.Errorf("core: adaptive capacity t=%d invalid for n=%d", tv, an)
		}
		m, t = uint(mv), int(tv)
		if m != b.plan.M || t != b.plan.T {
			b.replans++
		}
	}
	scr := bobScratchPool.Get().(*bobScratch)
	jobs := scr.jobs[:0]
	defer func() {
		// Jobs point into the snapshot; the pool must not keep it alive.
		clear(jobs)
		scr.jobs = jobs[:0]
		bobScratchPool.Put(scr)
	}()
	shape, err := bch.View(m, t, nil)
	if err != nil {
		return nil, err
	}
	nScopes, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("core: bad round header: %w", err)
	}
	// Plausibility cap: splits can multiply scopes well beyond the group
	// count when capacity was badly underestimated, so allow generous
	// headroom while still rejecting absurd messages.
	if nScopes > uint64(b.plan.Groups)*64+(1<<16) {
		return nil, fmt.Errorf("core: implausible scope count %d", nScopes)
	}
	n := (uint64(1) << m) - 1
	// Grow jobs and the codeword slab as scopes parse successfully rather
	// than pre-allocating by the peer-claimed count: a tiny frame claiming
	// the plausibility cap must not force a multi-megabyte allocation before
	// validation.
	syn := scr.syn[:0]
	for s := uint64(0); s < nScopes; s++ {
		id, err := readScopeID(r)
		if err != nil {
			return nil, fmt.Errorf("core: bad scope descriptor: %w", err)
		}
		if id.group < 0 || id.group >= b.plan.Groups {
			return nil, fmt.Errorf("core: scope group %d out of range", id.group)
		}
		syn = slices.Grow(syn, t)[:len(syn)+t]
		sketch := shape.Over(syn[len(syn)-t:])
		if err := sketch.ReadInto(r); err != nil {
			return nil, fmt.Errorf("core: bad sketch: %w", err)
		}
		job := bobScopeJob{id: id, seed: b.sd.binSeed(id, int(round))}
		// A whole group in round 1 at the table's bitmap size is what the
		// round-one table holds, once the group's lag is folded on top of
		// its row; the header checks above make the last condition
		// redundant for an honest peer. Such a job reads the row, the lag
		// and the slot's checksum, never the group's base, which may not be
		// cut yet. Every other job reads its scope's set, and a whole group
		// in a later round the row the shape keeps for it, if any:
		// scopeSet mutates the split cache, so it must stay in this
		// sequential pass; the parallel phase then only reads the slices.
		if tab := b.part.table; round == 1 && id.path == "" && tab != nil && tab.m == m {
			job.row = &tab.rows[id.group]
			job.set.lag = b.part.groups[id.group].lag
		} else {
			job.set = b.scopeSet(id)
			if round >= 2 && id.path == "" {
				job.row, job.offer = b.part.laterRow(rowKey{id.group, int(round), m})
			}
		}
		jobs = append(jobs, job)
	}

	work := len(jobs) * int(n+1)
	for i := range jobs {
		if jobs[i].row == nil {
			work += jobs[i].set.len()
		} else {
			work += len(jobs[i].set.lag)
		}
	}
	workers := b.plan.workersFor(work)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	for len(scr.workers) < workers {
		scr.workers = append(scr.workers, bobWorker{})
	}
	scr.syn = syn
	scr.pos = resized(scr.pos, len(syn))
	scr.xor = resized(scr.xor, len(syn))
	scr.replies = resized(scr.replies, len(jobs))
	replies := scr.replies
	busy := forEachScope(workers, len(jobs), func(worker, i int) {
		replies[i] = bobScopeReply{}
		wk := &scr.workers[worker]
		job := &jobs[i]
		wk.sums = resized(wk.sums, int(n+1))
		wk.parity = resized(wk.parity, int(parityWords(n)))
		sums, parity := wk.sums, wk.parity
		switch {
		case job.row != nil:
			sums, parity = job.row.withLag(job.set.lag, nil, job.seed, n, sums, parity)
		case job.offer:
			clear(sums)
			clear(parity)
			b.snap.foldKept(b.part, rowKey{job.id.group, int(round), m}, job.set, job.seed, sums, parity)
		default:
			clear(sums)
			clear(parity)
			job.set.fold(job.seed, n, sums, parity)
		}
		// Adding Bob's odd bins to Alice's codeword leaves the codeword of
		// the bins where the two bitmaps differ.
		lo, hi := i*t, (i+1)*t
		sketch := shape.Over(syn[lo:hi])
		sketch.AddBitmap(parity)
		// An empty codeword decodes to no positions (DecodeInto returns at
		// once); most scopes of a small-d round are, so they skip the call
		// and its clock reads.
		positions := scr.pos[lo:lo:hi]
		if !sketch.Empty() {
			// The one boundary between Bob's two reported times that falls
			// inside the fan-out: the rest of the share is encoding.
			decStart := time.Now()
			var derr error
			positions, derr = sketch.DecodeInto(&wk.dec, positions)
			wk.decDur += time.Since(decStart)
			if derr != nil {
				// BCH decoding failure (§3.2): report it; Alice will split.
				return
			}
		}
		xors := scr.xor[lo:lo:hi]
		for _, p := range positions {
			xors = append(xors, sums[p])
		}
		// Bob never toggles a group, so a whole group's checksum, in any
		// round, is the one its partition slot keeps; a split scope's is
		// one more pass over the elements the fold above just read.
		var checksum uint64
		if job.id.path == "" {
			checksum = b.part.groups[job.id.group].check
		} else {
			checksum = job.set.checksum(b.sigMask)
		}
		replies[i] = bobScopeReply{ok: true, positions: positions, xors: xors, checksum: checksum}
	})
	var decoding time.Duration
	for i := range scr.workers {
		decoding += scr.workers[i].decDur
		scr.workers[i].decDur = 0
	}
	b.decodeTime += decoding
	b.encodeTime += busy - decoding

	// A scope costs its flag, a count of some 10 bits and a checksum, a
	// position its m bits and an XOR sum.
	replyBits := len(jobs) * (11 + int(b.plan.SigBits))
	for i := range replies {
		replyBits += len(replies[i].positions) * int(m+b.plan.SigBits)
	}

	out := wire.NewWriterSize(replyBits)
	for i := range jobs {
		rep := &replies[i]
		if !rep.ok {
			out.WriteBool(false)
			continue
		}
		out.WriteBool(true)
		out.WriteUvarint(uint64(len(rep.positions)))
		for _, p := range rep.positions {
			out.WriteBits(p, m)
		}
		for _, x := range rep.xors {
			out.WriteBits(x, b.plan.SigBits)
		}
		out.WriteBits(rep.checksum, b.plan.SigBits)
		b.payloadBits += len(rep.positions)*int(m) +
			len(rep.positions)*int(b.plan.SigBits) + int(b.plan.SigBits)
		b.positionsSent += len(rep.positions)
		b.checksumsSent++
	}
	return out.Bytes(), nil
}
