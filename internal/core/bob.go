package core

import (
	"fmt"
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
	sd      seeds
	sigMask uint64

	// part holds Bob's elements partitioned by group — stable across
	// rounds because the group hash never changes — and, when the snapshot
	// keeps one for the plan's shape, the round-one table with each group's
	// round-1 fold and checksum.
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
// partitioned scope-set cache) up front.
type bobScopeJob struct {
	id    scopeID
	alice *bch.Sketch
	set   elemSet
	seed  uint64
	row   *foldRow // the scope's round-one table row, nil to fold set
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
// state a round, of this session or the next, performs no per-scope
// allocations. jobSketches are the reused parse targets for Alice's
// codewords and, like the workers' sketches, are built for shape (m, t);
// posBufs/xorBufs hold each scope index's reply until serialization.
type bobScratch struct {
	m           uint
	t           int
	workers     []bobWorker
	jobSketches []*bch.Sketch
	posBufs     [][]uint64
	xorBufs     [][]uint64
	jobs        []bobScopeJob
	replies     []bobScopeReply
}

var bobScratchPool = sync.Pool{New: func() any { return new(bobScratch) }}

// bobWorker is per-worker state: the bin-fold buffers (cleared per scope
// instead of reallocated, which matters at large g), the reusable parity
// sketch, the BCH decode workspace, and the worker's accumulated
// encode/decode time, folded into the Bob totals (and zeroed) after each
// parallel phase joins.
type bobWorker struct {
	sums   []uint64
	parity []bool
	sketch *bch.Sketch
	dec    *bch.Decoder
	encDur time.Duration
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
	if m != scr.m || t != scr.t {
		// Another round shape: the sketch scratch (sized per codeword) is stale.
		scr.jobSketches = scr.jobSketches[:0]
		for i := range scr.workers {
			scr.workers[i].sketch = nil
		}
		scr.m, scr.t = m, t
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
	// Grow jobs as scopes parse successfully rather than pre-allocating by
	// the peer-claimed count: a tiny frame claiming the plausibility cap
	// must not force a multi-megabyte allocation before validation.
	for s := uint64(0); s < nScopes; s++ {
		id, err := readScopeID(r)
		if err != nil {
			return nil, fmt.Errorf("core: bad scope descriptor: %w", err)
		}
		if id.group < 0 || id.group >= b.plan.Groups {
			return nil, fmt.Errorf("core: scope group %d out of range", id.group)
		}
		// Parse Alice's codeword into a long-lived per-index sketch instead
		// of allocating one per scope per round.
		if int(s) >= len(scr.jobSketches) {
			scr.jobSketches = append(scr.jobSketches, bch.MustNew(m, t))
		}
		aliceSketch := scr.jobSketches[s]
		if err := aliceSketch.ReadInto(r); err != nil {
			return nil, fmt.Errorf("core: bad sketch: %w", err)
		}
		// scopeSet mutates the split cache, so it must stay in this
		// sequential pass; the parallel phase then only reads the slices.
		job := bobScopeJob{
			id:    id,
			alice: aliceSketch,
			set:   b.scopeSet(id),
			seed:  b.sd.binSeed(id, int(round)),
		}
		// A whole group in round 1 at the table's bitmap size is what the
		// round-one table holds; the header checks above make the last
		// condition redundant for an honest peer.
		if tab := b.part.table; round == 1 && id.path == "" && tab != nil && tab.m == m {
			job.row = &tab.rows[id.group]
		}
		jobs = append(jobs, job)
	}

	work := len(jobs) * int(n+1)
	for i := range jobs {
		if jobs[i].row == nil {
			work += jobs[i].set.len()
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
	for len(scr.posBufs) < len(jobs) {
		scr.posBufs = append(scr.posBufs, nil)
		scr.xorBufs = append(scr.xorBufs, nil)
	}
	if cap(scr.replies) < len(jobs) {
		scr.replies = make([]bobScopeReply, len(jobs))
	}
	replies := scr.replies[:len(jobs)]
	forEachScope(workers, len(jobs), func(worker, i int) {
		replies[i] = bobScopeReply{}
		sc := &scr.workers[worker]
		if sc.sketch == nil {
			sc.sketch = bch.MustNew(m, t)
			if sc.dec == nil {
				sc.dec = bch.NewDecoder()
			}
		}
		job := &jobs[i]
		encStart := time.Now()
		var sums []uint64
		var parity []bool
		if job.row != nil {
			sums, parity = job.row.sums, job.row.parity
		} else {
			if uint64(len(sc.sums)) != n+1 {
				sc.sums = make([]uint64, n+1)
				sc.parity = make([]bool, n+1)
			} else {
				clear(sc.sums)
				clear(sc.parity)
			}
			sums, parity = sc.sums, sc.parity
			job.set.fold(job.seed, n, sums, parity)
		}
		sketch := sc.sketch
		sketch.Reset()
		for j := uint64(1); j <= n; j++ {
			if parity[j] {
				sketch.Add(j)
			}
		}
		// The shapes match by construction (same plan), so Xor cannot fail.
		sketch.Xor(job.alice)
		sc.encDur += time.Since(encStart)
		decStart := time.Now()
		positions, derr := sketch.DecodeInto(sc.dec, scr.posBufs[i][:0])
		scr.posBufs[i] = positions
		sc.decDur += time.Since(decStart)
		if derr != nil {
			// BCH decoding failure (§3.2): report it; Alice will split.
			return
		}
		xors := scr.xorBufs[i][:0]
		for _, p := range positions {
			xors = append(xors, sums[p])
		}
		scr.xorBufs[i] = xors
		// A whole group's checksum is in its table row; any other scope's
		// is one more pass over the elements the fold above just read.
		var checksum uint64
		if job.row != nil {
			checksum = job.row.checksum
		} else {
			checksum = job.set.checksum(b.sigMask)
		}
		replies[i] = bobScopeReply{ok: true, positions: positions, xors: xors, checksum: checksum}
	})
	for i := range scr.workers {
		b.encodeTime += scr.workers[i].encDur
		b.decodeTime += scr.workers[i].decDur
		scr.workers[i].encDur = 0
		scr.workers[i].decDur = 0
	}

	out := wire.NewWriter()
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
