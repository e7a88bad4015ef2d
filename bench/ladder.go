package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pbs"
	"pbs/internal/bch"
	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/lz"
	"pbs/internal/markov"
	"pbs/internal/registry"
	"pbs/internal/setstore"
)

// The traced run measures layers from outside: it takes syncs from the
// workload's own input stream and replays each at successive rungs, from the
// whole system down to the BCH kernel, timing the calls into each layer's
// exported functions.
//
//	server   Set.Sync over TCP loopback to the pbs.Server (the workload's sync)
//	session  the same Set.Sync against Set.Respond over net.Pipe
//	set      Set.Reconcile, both endpoints in process
//	core     NewValidatedSnapshot, NewAlice/NewBobFromSnapshot, the round loop
//	estimator, markov   ToW.Estimate and pbs.PlanFor for the same sync
//	bch      round-1 kernel work for the plan the core rung derived
//
// A span names the rung that logically contains it as its parent, so a
// rung's self time is its wall time minus its children's: server − session
// is what the TCP stack and the server's connection loop add, session − set
// is the session engine and frame codec, and so on down.

// span is one timed call. Parent is the index of the containing rung's span
// in the same file, -1 for a root; spans of one replayed sync share SyncID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	SyncID int    `json:"sync_id"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) add(name string, parent, syncID int, start time.Time, d time.Duration) int {
	s := start.Sub(tr.t0).Nanoseconds()
	tr.spans = append(tr.spans, span{name, s, s + d.Nanoseconds(), parent, syncID})
	return len(tr.spans) - 1
}

// byName returns, per span name, every span's duration and self time in
// microseconds.
func (tr *tracer) byName() (dur, self map[string][]float64) {
	selfNs := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		selfNs[i] += s.End - s.Start
		if s.Parent >= 0 {
			selfNs[s.Parent] -= s.End - s.Start
		}
	}
	dur, self = make(map[string][]float64), make(map[string][]float64)
	for i, s := range tr.spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
		self[s.Name] = append(self[s.Name], float64(selfNs[i])/1e3)
	}
	return dur, self
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// frameConn is the client end of the session rung's pipe. It parses the
// 5-byte frame headers (4-byte length, 1-byte type) out of both byte
// streams to count frames, and keeps the payloads large enough for the mux
// layer to offer to its compressor.
type frameConn struct {
	net.Conn
	in, out frameParser
}

type frameParser struct {
	frames  int
	hdr     [5]byte
	hdrLen  int
	need    int    // payload bytes of the current frame still to come
	keep    []byte // payload being captured, nil when too small to matter
	capture [][]byte
}

// lzMinPayload mirrors the mux layer's compression threshold.
const lzMinPayload = 512

func (p *frameParser) feed(b []byte) {
	for len(b) > 0 {
		if p.need == 0 {
			n := copy(p.hdr[p.hdrLen:], b)
			p.hdrLen += n
			b = b[n:]
			if p.hdrLen < len(p.hdr) {
				return
			}
			p.hdrLen = 0
			p.frames++
			p.need = int(binary.BigEndian.Uint32(p.hdr[:4]))
			if p.need >= lzMinPayload {
				p.keep = make([]byte, 0, p.need)
			}
			continue
		}
		n := min(p.need, len(b))
		if p.keep != nil {
			p.keep = append(p.keep, b[:n]...)
		}
		p.need -= n
		b = b[n:]
		if p.need == 0 && p.keep != nil {
			p.capture = append(p.capture, p.keep)
			p.keep = nil
		}
	}
}

func (c *frameConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n])
	return n, err
}

func (c *frameConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	return n, err
}

// rungState is what the in-process rungs keep per target: a mirror of the
// server-side set as a pbs.Set (the responder of the session and set
// rungs), its elements and snapshot for the core rung, and both sides' ToW
// sketches, maintained incrementally like the library maintains its own.
type rungState struct {
	mirror *pbs.Set
	elemsB []uint64
	snapB  *core.Snapshot
	ya, yb []int64
}

type ladder struct {
	e   *env
	ctx context.Context
	tr  tracer
	rng *rand.Rand

	coreCfg core.Config
	tow     *estimator.ToW
	states  map[*target]*rungState

	// Side connections: the same sync is repeated over the other connection
	// loop (sequential vs mux) and over a compressing mux connection, to
	// read the mux envelope and the lz saving off byte counters.
	seqConn         *countConn
	muxPlain, muxLZ *sideMux

	// Sums over the replayed syncs.
	syncs, diffElems, coldSyncs    int
	coldUs, warmUs                 []float64
	frames, headerBytes            int
	readCalls, writeCalls          int64
	ownBytes, otherBytes           int64 // the workload's connection loop vs the other one
	lzWire, lzSaved, lzNs, lzBytes int64
	estBytes, payloadBytes         int
	firstRound, relErr             float64
	towNs, towElems                int64
	decodeNs                       int64
}

type sideMux struct {
	cc *countConn
	mc *pbs.MuxConn
}

func (l *ladder) newSideMux(compress bool) (*sideMux, error) {
	cc, err := l.e.dial(l.ctx)
	if err != nil {
		return nil, err
	}
	return &sideMux{cc: cc, mc: pbs.NewMuxConn(cc, pbs.WithMuxCompression(compress))}, nil
}

// runLadder is the traced run. A plain phase first runs the untraced closed
// loop (runtime and server counters, and the untraced median the ladder's
// overhead is measured against); then up to ladderSyncs syncs are replayed
// rung by rung within the remaining time. It returns the per-layer metrics.
func runLadder(ctx context.Context, e *env, cfg runConfig) ([]metric, int, error) {
	plainSyncs, ladderSyncs := 0, e.w.ladderSyncs
	if cfg.syncs > 0 {
		plainSyncs, ladderSyncs = cfg.syncs, min(ladderSyncs, cfg.syncs)
	}
	plain, err := e.measure(ctx, 0.3*cfg.seconds, plainSyncs)
	if err == nil && len(plain.problems) > 0 {
		err = fmt.Errorf("%s", plain.problems[0])
	}
	if err != nil {
		return nil, 1, fmt.Errorf("plain phase: %w", err)
	}

	tow, err := estimator.NewToW(estimator.DefaultSketches, e.opt.Seed)
	if err != nil {
		return nil, 1, err
	}
	l := &ladder{
		e: e, ctx: ctx, tow: tow,
		tr:      tracer{t0: time.Now()},
		rng:     rngFor(cfg.seed, e.w, 1<<32),
		coreCfg: core.Config{Seed: e.opt.Seed},
		states:  make(map[*target]*rungState),
	}
	if l.seqConn, err = e.dial(ctx); err != nil {
		return nil, 1, err
	}
	if l.muxPlain, err = l.newSideMux(false); err != nil {
		return nil, 1, err
	}
	defer l.muxPlain.mc.Close()
	if l.muxLZ, err = l.newSideMux(true); err != nil {
		return nil, 1, err
	}
	defer l.muxLZ.mc.Close()

	base := e.srv.Stats()
	deadline := time.Now().Add(time.Duration(0.7 * cfg.seconds * float64(time.Second)))
	c := e.clients[0]
	for n := 0; n < ladderSyncs && (cfg.syncs > 0 || time.Now().Before(deadline)); n++ {
		if err := l.replay(c, n); err != nil {
			return nil, plain.attempted + l.syncs + 1, fmt.Errorf("ladder sync %d: %w", n, err)
		}
	}
	if l.syncs == 0 {
		return nil, plain.attempted + 1, fmt.Errorf("ladder replayed no sync")
	}
	end := e.srv.Stats()

	reg := registryRung(max(e.w.hostedSets, 1))
	store, err := setstoreRung(cfg.tmpDir, e.serverSets[c.targets[0].name], e.w.poolSize)
	if err != nil {
		return nil, plain.attempted + l.syncs, fmt.Errorf("setstore rung: %w", err)
	}
	if err := l.writeSpans(cfg); err != nil {
		return nil, plain.attempted + l.syncs, err
	}
	return l.metrics(plain, base, end, reg, store), plain.attempted + l.syncs, nil
}

// stateFor builds a target's rung state on first use, from the current
// ground truth.
func (l *ladder) stateFor(t *target) (*rungState, error) {
	if st := l.states[t]; st != nil {
		return st, nil
	}
	elemsB := append([]uint64(nil), l.e.serverSets[t.name]...)
	if t.poolIn {
		elemsB = append(elemsB, t.pool...)
	}
	mirror, err := pbs.NewSet(elemsB, pbs.WithOptions(l.e.opt))
	if err != nil {
		return nil, err
	}
	st := &rungState{mirror: mirror, elemsB: elemsB, yb: l.tow.Sketch(elemsB)}
	elemsA := t.set.Elements()
	start := time.Now()
	st.ya = l.tow.Sketch(elemsA)
	l.tr.add("estimator.sketch", -1, -1, start, time.Since(start))
	l.states[t] = st
	return st, nil
}

// towUpdate applies a write to one side's sketch, timing the incremental
// updates — the estimator's share of every Set.Add/Remove.
func (l *ladder) towUpdate(ys []int64, adds, dels []uint64) {
	start := time.Now()
	for _, x := range dels {
		l.tow.Remove(ys, x)
	}
	for _, x := range adds {
		l.tow.Add(ys, x)
	}
	l.towNs += time.Since(start).Nanoseconds()
	l.towElems += int64(len(adds) + len(dels))
}

// touch invalidates the client Set's cached view the way the workload's
// churn does before every sync, so each rung pays the view rebuild the
// workload's sync pays instead of finding the previous rung's.
func (l *ladder) touch(t *target) {
	if l.e.w.churn == 0 {
		return
	}
	x := t.common[0]
	t.set.Remove(x)
	t.set.Add(x)
}

// syncOver repeats the sync over a side connection and returns the bytes it
// put on that connection.
func (l *ladder) syncOver(t *target, cc *countConn, conn net.Conn) (int64, error) {
	l.touch(t)
	r0, w0 := cc.rBytes.Load(), cc.wBytes.Load()
	res, err := t.set.Sync(l.ctx, conn, t.syncOptions()...)
	if err == nil {
		err = t.verify(res)
	}
	return cc.rBytes.Load() - r0 + cc.wBytes.Load() - w0, err
}

func (l *ladder) syncOverMux(t *target, m *sideMux) (int64, error) {
	st, err := m.mc.Stream()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	return l.syncOver(t, m.cc, st)
}

// replay takes the workload's next write and sync and walks it down the
// ladder.
func (l *ladder) replay(c *client, n int) error {
	e, id := l.e, n

	// The workload's write, mirrored into the rung state it affects.
	writeStart := time.Now()
	t, written, writeDur, err := e.write(c, n)
	if err != nil {
		return err
	}
	switch {
	case written == nil:
	case e.w.hostedSets > 0:
		l.tr.add("hosted.update", -1, id, writeStart, writeDur)
		if st := l.states[written]; st != nil {
			// The pool just moved into or out of the server-side set.
			if written.poolIn {
				st.mirror.Add(written.pool...)
				st.elemsB = append(st.elemsB, written.pool...)
				l.towUpdate(st.yb, written.pool, nil)
			} else {
				st.mirror.Remove(written.pool...)
				st.elemsB = st.elemsB[:len(st.elemsB)-len(written.pool)]
				l.towUpdate(st.yb, nil, written.pool)
			}
			st.snapB = nil
		}
	default:
		l.tr.add("set.churn", -1, id, writeStart, writeDur)
		if st := l.states[written]; st != nil {
			l.towUpdate(st.ya, written.adds, written.dels)
		}
	}
	st, err := l.stateFor(t)
	if err != nil {
		return err
	}

	// server: the workload's own sync, over TCP loopback.
	own := e.counted[0] // the shared mux connection is the first one dialed
	if e.muxConn == nil {
		own = c.conn.(*countConn)
	}
	cold0 := e.srv.Stats().ColdLoads
	r0, w0, rc0, wc0 := own.rBytes.Load(), own.wBytes.Load(), own.rCalls.Load(), own.wCalls.Load()
	start := time.Now()
	res, dt, err := e.sync(l.ctx, c, t)
	if err == nil {
		err = t.verify(res)
	}
	if err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	server := l.tr.add("server", -1, id, start, dt)
	l.ownBytes += own.rBytes.Load() - r0 + own.wBytes.Load() - w0
	l.readCalls += own.rCalls.Load() - rc0
	l.writeCalls += own.wCalls.Load() - wc0
	d := len(res.Difference)
	l.syncs++
	l.diffElems += d
	if e.srv.Stats().ColdLoads > cold0 {
		l.coldSyncs++
		l.coldUs = append(l.coldUs, us(dt))
	} else {
		l.warmUs = append(l.warmUs, us(dt))
	}

	// session: the same sync against Set.Respond over an in-process pipe.
	l.touch(t)
	c1, c2 := net.Pipe()
	fc := &frameConn{Conn: c1}
	respErr := make(chan error, 1)
	go func() { respErr <- st.mirror.Respond(l.ctx, c2) }()
	start = time.Now()
	pres, err := t.set.Sync(l.ctx, fc, t.syncOptions()...)
	dt = time.Since(start)
	c1.Close()
	rerr := <-respErr
	c2.Close()
	if err == nil {
		err = t.verify(pres)
	}
	if err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("session rung: %w", err)
	}
	session := l.tr.add("session", server, id, start, dt)
	l.frames += fc.in.frames + fc.out.frames
	l.headerBytes += 5 * (fc.in.frames + fc.out.frames)
	l.estBytes += pres.EstimatorBytes
	for _, payload := range append(fc.in.capture, fc.out.capture...) {
		start = time.Now()
		lz.Compress(nil, payload)
		l.lzNs += time.Since(start).Nanoseconds()
		l.lzBytes += int64(len(payload))
	}

	// set: both endpoints in process. Adaptive mode is off for this call
	// only: in process it adds a Strata/MinWise cross-check of large
	// estimates that no wire sync performs, which would make this rung
	// several times more expensive than the rungs that contain it.
	l.touch(t)
	start = time.Now()
	rres, err := t.set.Reconcile(l.ctx, st.mirror, pbs.WithAdaptive(false))
	dt = time.Since(start)
	if err == nil {
		err = t.verify(rres)
	}
	if err != nil {
		return fmt.Errorf("set rung: %w", err)
	}
	set := l.tr.add("set", session, id, start, dt)

	if err := l.coreRung(t, st, set, id, d); err != nil {
		return fmt.Errorf("core rung: %w", err)
	}

	// The same sync over the other connection loop, over a compressing mux
	// connection, and over a freshly dialed connection.
	var other int64
	if e.muxConn != nil {
		other, err = l.syncOver(t, l.seqConn, l.seqConn)
	} else {
		other, err = l.syncOverMux(t, l.muxPlain)
	}
	if err != nil {
		return fmt.Errorf("other connection loop: %w", err)
	}
	l.otherBytes += other
	saved0 := e.srv.Stats().BytesSavedCompression
	wire, err := l.syncOverMux(t, l.muxLZ)
	if err != nil {
		return fmt.Errorf("compressed mux: %w", err)
	}
	l.lzWire += wire
	l.lzSaved += e.srv.Stats().BytesSavedCompression - saved0

	start = time.Now()
	fresh, err := e.dial(l.ctx)
	if err != nil {
		return err
	}
	_, err = l.syncOver(t, fresh, fresh)
	fresh.Close()
	if err != nil {
		return fmt.Errorf("fresh dial: %w", err)
	}
	l.tr.add("server.dial_sync", -1, id, start, time.Since(start))
	return nil
}

// coreRung replays the sync on internal/core, internal/estimator and
// internal/markov the way Set.Reconcile composes them, then replays round 1
// of the derived plan on the BCH kernel alone.
func (l *ladder) coreRung(t *target, st *rungState, parent, id, d int) error {
	elemsA := t.set.Elements()
	if st.snapB == nil {
		snap, err := core.NewSnapshot(st.elemsB, l.coreCfg)
		if err != nil {
			return err
		}
		st.snapB = snap
	}

	start := time.Now()
	dhat, err := l.tow.Estimate(st.ya, st.yb)
	l.tr.add("estimator.estimate", parent, id, start, time.Since(start))
	if err != nil {
		return err
	}
	if d > 0 {
		l.relErr += math.Abs(dhat-float64(d)) / float64(d)
	}
	dCons := estimator.ConservativeD(dhat, estimator.DefaultGamma)

	start = time.Now()
	plan, err := pbs.PlanFor(dCons, &l.e.opt)
	l.tr.add("markov.plan", parent, id, start, time.Since(start))
	if err != nil {
		return err
	}
	// A re-plan as the adaptive controller asks for one: a scope whose
	// decode failed holds more than t differences.
	start = time.Now()
	_, err = markov.Replan(plan.T+1, 1, core.DefaultTargetSuccess)
	l.tr.add("markov.replan", -1, id, start, time.Since(start))
	if err != nil {
		return err
	}

	start = time.Now()
	snapA, err := core.NewValidatedSnapshot(elemsA, l.coreCfg)
	l.tr.add("core.snapshot", parent, id, start, time.Since(start))
	if err != nil {
		return err
	}

	start = time.Now()
	alice, err := core.NewAliceFromSnapshot(snapA, plan)
	if err != nil {
		return err
	}
	bob, err := core.NewBobFromSnapshot(st.snapB, plan)
	l.tr.add("core.setup", parent, id, start, time.Since(start))
	if err != nil {
		return err
	}

	start = time.Now()
	firstRound := -1
	for rounds := 0; rounds < plan.MaxRounds && !alice.Done(); rounds++ {
		msg, err := alice.BuildRound()
		if err != nil {
			return err
		}
		if msg == nil {
			break
		}
		reply, err := bob.HandleRound(msg)
		if err != nil {
			return err
		}
		if err := alice.AbsorbReply(reply); err != nil {
			return err
		}
		if firstRound < 0 {
			firstRound = len(alice.Difference())
		}
	}
	round := l.tr.add("core.round", parent, id, start, time.Since(start))
	if !alice.Done() || len(alice.Difference()) != d {
		return fmt.Errorf("learned %d of %d differences, done=%t", len(alice.Difference()), d, alice.Done())
	}
	if d > 0 {
		l.firstRound += float64(firstRound) / float64(d)
	}
	l.payloadBytes += (alice.PayloadBits() + bob.PayloadBits()) / 8

	return l.bchRung(plan, len(elemsA), d, round, id)
}

// bchRung does round 1's BCH work for plan and nothing else: per group pair
// it encodes both sides' parity bitmaps (bch.Sketch.AddSet over the odd
// bins), XORs the codewords and decodes the difference, with the d
// differing elements thrown into groups and bins uniformly (a multinomial
// load per group, as the protocol's hash partition produces) and the same
// worker count the core uses.
func (l *ladder) bchRung(plan core.Plan, sizeA, d, parent, id int) error {
	n := int(plan.N())
	loads := make([]int, plan.Groups)
	for i := 0; i < d; i++ {
		loads[l.rng.IntN(plan.Groups)]++
	}
	// A bin's parity is odd with this probability when k elements hash
	// uniformly into n bins.
	k := float64(sizeA) / float64(plan.Groups)
	pOdd := (1 - math.Pow(1-2/float64(n), k)) / 2
	type group struct {
		a, b   []uint64
		sa, sb *bch.Sketch
	}
	groups := make([]group, plan.Groups)
	inB := make([]bool, n+1)
	for g := range groups {
		gr := &groups[g]
		clear(inB)
		for pos := 1; pos <= n; pos++ {
			if l.rng.Float64() < pOdd {
				gr.a = append(gr.a, uint64(pos))
				inB[pos] = true
			}
		}
		// Bob's bitmap differs from Alice's in one bin per difference.
		for _, pos := range l.rng.Perm(n)[:min(loads[g], n)] {
			inB[pos+1] = !inB[pos+1]
		}
		for pos := 1; pos <= n; pos++ {
			if inB[pos] {
				gr.b = append(gr.b, uint64(pos))
			}
		}
		gr.sa, gr.sb = bch.MustNew(plan.M, plan.T), bch.MustNew(plan.M, plan.T)
	}

	workers := min(runtime.GOMAXPROCS(0), len(groups))
	forEach := func(fn func(worker, g int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for g := int(next.Add(1)) - 1; g < len(groups); g = int(next.Add(1)) - 1 {
					fn(w, g)
				}
			}(w)
		}
		wg.Wait()
	}

	start := time.Now()
	forEach(func(_, g int) {
		groups[g].sa.AddSet(groups[g].a)
		groups[g].sb.AddSet(groups[g].b)
	})
	l.tr.add("bch.encode", parent, id, start, time.Since(start))

	decoders := make([]*bch.Decoder, workers)
	scratch := make([][]uint64, workers)
	for w := range decoders {
		decoders[w] = bch.NewDecoder()
	}
	var wrong atomic.Int64
	start = time.Now()
	forEach(func(w, g int) {
		gr := &groups[g]
		out, err := []uint64(nil), gr.sa.Xor(gr.sb)
		if err == nil {
			out, err = gr.sa.DecodeInto(decoders[w], scratch[w][:0])
			scratch[w] = out
		}
		// Over-capacity groups fail to decode here as they do in the
		// protocol, which then splits them three ways in round 2; a group
		// within capacity must decode to exactly its load.
		if loads[g] <= plan.T && (err != nil || len(out) != loads[g]) {
			wrong.Add(1)
		}
	})
	dt := time.Since(start)
	l.tr.add("bch.decode", parent, id, start, dt)
	l.decodeNs += dt.Nanoseconds()
	if n := wrong.Load(); n > 0 {
		return fmt.Errorf("bch replay: %d of %d groups within capacity t=%d did not decode to their load", n, len(groups), plan.T)
	}
	return nil
}

// registryRung times lookups and session accounting on a registry holding a
// catalog of the workload's size.
type registryTimes struct{ get, session float64 }

func registryRung(sets int) (ns registryTimes) {
	reg := registry.New[int](0, registry.Quota{})
	names := make([]string, sets)
	for i := range names {
		names[i] = hostedName(i)
		reg.Register(names[i], i, 8)
	}
	const ops = 200000
	start := time.Now()
	for i := 0; i < ops; i++ {
		reg.Get(names[i%sets])
	}
	ns.get = float64(time.Since(start).Nanoseconds()) / ops
	start = time.Now()
	for i := 0; i < ops; i++ {
		name := names[i%sets]
		if reg.BeginSession(name) == nil {
			reg.EndSession(name)
		}
	}
	ns.session = float64(time.Since(start).Nanoseconds()) / ops
	return ns
}

type setstoreTimes struct{ full, delta, meta, load, merge []float64 }

// setstoreRung times the segment store on a set of the workload's size: a
// full segment, a chain of small deltas, a footer read, a cold load of the
// chain and its merge — what hosting, eviction and paging-in cost
// underneath the hosted layer.
func setstoreRung(tmpDir string, elems []uint64, deltaSize int) (times setstoreTimes, err error) {
	dir, err := os.MkdirTemp(tmpDir, "setstore-")
	if err != nil {
		return times, err
	}
	defer os.RemoveAll(dir)
	store, err := setstore.Open(dir, 0)
	if err != nil {
		return times, err
	}
	defer store.Close()
	deltaSize = max(deltaSize, 8)
	meta := setstore.Meta{
		Count:  uint64(len(elems)),
		Sketch: make([]int64, estimator.DefaultSketches),
		Digest: make([]byte, 32),
	}
	timed := func(dst *[]float64, fn func() error) error {
		start := time.Now()
		err := fn()
		*dst = append(*dst, us(time.Since(start)))
		return err
	}
	// Elements above the 32-bit universe cannot collide with the set's own.
	next := uint64(1) << 32
	for i := 0; i < 5 && err == nil; i++ {
		name := fmt.Sprintf("rung-%d", i)
		err = timed(&times.full, func() error { return store.AppendFull(name, elems, meta) })
		for j := 0; j < 3 && err == nil; j++ {
			adds := make([]uint64, deltaSize)
			for k := range adds {
				adds[k] = next
				next++
			}
			meta.Count += uint64(deltaSize)
			err = timed(&times.delta, func() error { return store.AppendDelta(name, adds, nil, meta) })
		}
		if err == nil {
			err = timed(&times.meta, func() error { _, err := store.Meta(name); return err })
		}
		if err == nil {
			err = timed(&times.load, func() error { _, _, err := store.Load(name); return err })
		}
		if err == nil {
			err = timed(&times.merge, func() error { _, err := store.Merge(name); return err })
		}
		meta.Count = uint64(len(elems))
	}
	return times, err
}

func (l *ladder) writeSpans(cfg runConfig) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{l.e.w.name, cfg.seed, l.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace_"+l.e.w.name+".json"), data, 0o644)
}

// metrics turns the spans and counters into the per-layer metrics. Times
// are medians over the replayed syncs; shares and per-element costs are
// ratios of sums.
func (l *ladder) metrics(plain *measured, base, end pbs.ServerStats, reg registryTimes, store setstoreTimes) []metric {
	dur, self := l.tr.byName()
	n := l.syncs
	fn := float64(n)
	pn := len(plain.samples)
	fpn := float64(pn)
	med := func(m map[string][]float64, name string) float64 { return median(m[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	coldPenalty := 0.0
	if len(l.coldUs) > 0 && len(l.warmUs) > 0 {
		coldPenalty = median(l.coldUs) - median(l.warmUs)
	}
	// Bytes the mux envelope adds to a sync: the mux connection loop's
	// bytes minus the sequential loop's, whichever of them is the
	// workload's own.
	envelope := float64(l.otherBytes-l.ownBytes) / fn
	if l.e.muxConn != nil {
		envelope = -envelope
	}
	covered := sum(dur["core.snapshot"]) + sum(dur["core.setup"]) + sum(dur["core.round"]) +
		sum(dur["estimator.estimate"]) + sum(dur["markov.plan"])
	plainP50 := us(quantile(plain.samples, 0.50))

	return []metric{
		{"bch.encode_us_per_sync", med(dur, "bch.encode"), "us", n},
		{"bch.decode_us_per_sync", med(dur, "bch.decode"), "us", n},
		{"bch.decode_ns_per_diff_elem", ratio(float64(l.decodeNs), float64(l.diffElems)), "ns", l.diffElems},
		{"core.snapshot_us", med(dur, "core.snapshot"), "us", n},
		{"core.setup_us_per_sync", med(dur, "core.setup"), "us", n},
		{"core.round_us_per_sync", med(self, "core.round"), "us", n},
		{"core.first_round_share", l.firstRound / fn, "share", n},
		{"core.payload_bytes_per_diff_elem", ratio(float64(l.payloadBytes), float64(l.diffElems)), "B", l.diffElems},
		{"estimator.tow_update_ns_per_elem", ratio(float64(l.towNs), float64(l.towElems)), "ns", int(l.towElems)},
		{"estimator.tow_sketch_us", med(dur, "estimator.sketch"), "us", len(dur["estimator.sketch"])},
		{"estimator.tow_estimate_us", med(dur, "estimator.estimate"), "us", n},
		{"estimator.rel_error", l.relErr / fn, "share", n},
		{"estimator.bytes_per_sync", float64(l.estBytes) / fn, "B", n},
		{"markov.plan_us", med(dur, "markov.plan"), "us", n},
		{"markov.replan_us", med(dur, "markov.replan"), "us", n},
		{"set.reconcile_us", med(dur, "set"), "us", n},
		{"set.self_us_per_sync", med(self, "set"), "us", n},
		{"set.churn_us_per_sync", med(dur, "set.churn"), "us", len(dur["set.churn"])},
		{"session.pipe_sync_us", med(dur, "session"), "us", n},
		{"session.self_us_per_sync", med(self, "session"), "us", n},
		{"frame.frames_per_sync", float64(l.frames) / fn, "count", n},
		{"frame.header_bytes_per_sync", float64(l.headerBytes) / fn, "B", n},
		{"frame.write_calls_per_sync", float64(l.writeCalls) / fn, "count", n},
		{"frame.read_calls_per_sync", float64(l.readCalls) / fn, "count", n},
		{"frame.mux_envelope_bytes_per_sync", envelope, "B", n},
		{"frame.lz_saved_share", ratio(float64(l.lzSaved), float64(l.lzWire+l.lzSaved)), "share", n},
		{"frame.lz_ns_per_byte", ratio(float64(l.lzNs), float64(l.lzBytes)), "ns", int(l.lzBytes)},
		{"server.tcp_sync_us", med(dur, "server"), "us", n},
		{"server.self_us_per_sync", med(self, "server"), "us", n},
		{"server.dial_first_sync_us", med(dur, "server.dial_sync"), "us", n},
		{"server.session_p50_us", plain.stats.LatencyUS.P50, "us", int(plain.stats.LatencyUS.Count)},
		{"server.prior_hit_share", float64(plain.stats.PriorHits) / fpn, "share", pn},
		{"server.replans_per_sync", float64(plain.stats.AdaptiveReplans) / fpn, "count", pn},
		{"server.sync_p99_us", us(quantile(plain.samples, 0.99)), "us", pn},
		{"registry.get_ns", reg.get, "ns", 200000},
		{"registry.begin_end_session_ns", reg.session, "ns", 200000},
		{"setstore.load_us", median(store.load), "us", len(store.load)},
		{"setstore.append_delta_us", median(store.delta), "us", len(store.delta)},
		{"setstore.append_full_us", median(store.full), "us", len(store.full)},
		{"setstore.merge_us", median(store.merge), "us", len(store.merge)},
		{"setstore.meta_us", median(store.meta), "us", len(store.meta)},
		{"hosted.cold_load_share", float64(l.coldSyncs) / fn, "share", n},
		{"hosted.cold_penalty_us", coldPenalty, "us", len(l.coldUs)},
		{"hosted.evictions_per_sync", float64(end.Evictions-base.Evictions) / fn, "count", n},
		{"hosted.merges_per_sync", float64(end.SegmentMerges-base.SegmentMerges) / fn, "count", n},
		{"hosted.update_us", med(dur, "hosted.update"), "us", len(dur["hosted.update"])},
		{"runtime.mallocs_per_sync", float64(plain.mem.Mallocs) / fpn, "count", pn},
		{"runtime.gc_cycles_per_ksync", 1000 * float64(plain.mem.NumGC) / fpn, "count", pn},
		{"runtime.gc_pause_us_per_sync", float64(plain.mem.PauseTotalNs) / 1e3 / fpn, "us", pn},
		{"ladder.residual_share", 1 - ratio(covered, sum(dur["server"])), "share", n},
		{"ladder.trace_overhead_share", ratio(med(dur, "server")-plainP50, plainP50), "share", n},
	}
}
