package pbs

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"pbs/internal/core"
	"pbs/internal/estimator"
)

// This file implements the blocking wire protocol over an io.ReadWriter:
// the Tug-of-War estimation phase (§6.2), deterministic parameter
// derivation on both sides, the multi-round PBS exchange, and an optional
// strong final verification using a multiset hash (the §2.2.3 hardening).
// The protocol logic itself lives in the non-blocking session engine
// (session.go); SyncInitiator and SyncResponder only pump frames between a
// connection and a session, and the concurrent Server (server.go) drives
// the same engine for many connections at once.
//
// Message flow (I = initiator, R = responder):
//
//	I -> R  msgEstimate      ℓ ToW sketches of I's set
//	R -> I  msgEstimateReply round(d̂) computed against R's sketches
//	I -> R  msgRound         scope descriptors + BCH codewords   ┐ repeated
//	R -> I  msgRoundReply    positions, XOR sums, checksums      ┘ per round
//	I -> R  msgVerify        (only with StrongVerify)
//	R -> I  msgVerifyReply   32-byte multiset-hash digest of R's set
//	I -> R  msgDone          closes the session
//
// Frames are length-prefixed with a one-byte type. Every parameter both
// sides must share (seed, δ, p0, r, signature width) travels out of band in
// Options, as a deployment would pin them in its protocol version.
// Options.Parallelism is the exception: it only sizes the local worker pool
// for per-group decoding, produces byte-identical frames for any value, and
// so may differ freely between the two endpoints.
//
// Two further frame types exist only at the edges of a pbs-serve
// deployment and never appear inside a reconciliation exchange: a Client
// may open its connection with msgHello naming the server-side set to
// reconcile against, and a Server reports a rejected or failed session
// with a final msgError carrying a diagnostic string.
//
// Fast path (protocol version 1): the flow above costs two round trips
// before the first difference element lands (estimate, then round 1).
// A fast initiator instead opens with a single msgHelloV1 frame carrying
// the protocol version, the set name, its ToW sketches, a speculative
// difference bound d_spec, and round 1 already built under the plan
// derived from d_spec. The responder computes the true d̂ from the
// piggybacked sketches and answers with one msgHelloReplyV1 frame: d̂,
// the round-1 reply when the speculation was adequately sized (PBS is
// piecewise decodable, so an undersized speculative round degrades into
// 3-way splits in round 2 instead of failing), and — when requested —
// the strong-verification digest, so even StrongVerify sessions finish
// in one round trip. When the responder declines the speculation
// (d̂ far above d_spec), both sides deterministically re-plan from d̂ and
// continue with the classic msgRound flow, which costs exactly what the
// legacy negotiation would have. A legacy peer answers msgHelloV1 with
// msgError; initiators surface that as ErrFastSyncRejected so callers
// (Client does this automatically) can negotiate down to the multi-RTT
// flow. The legacy flow itself is byte-identical to protocol version 0.

const (
	msgEstimate = iota + 1
	msgEstimateReply
	msgRound
	msgRoundReply
	msgVerify
	msgVerifyReply
	msgDone
	msgHello        // client -> server: name of the shared set to sync against
	msgError        // server -> client: session rejected or failed, payload = text
	msgHelloV1      // fast initiator open: version + name + sketches + speculative round 1
	msgHelloReplyV1 // fast responder answer: d̂ + optional round-1 reply + optional digest
	msgStreamClose  // mux only: bare stream teardown without a session message
)

// fastProtoVersion is the wire-protocol version this build negotiates in
// msgHelloV1. A responder replies with the version it selected; initiators
// reject a reply version they did not offer. Version 2 is version 1 plus
// hello-time feature negotiation (mux, compression): a v2 hello carries
// want-flags, and the responder answers with version 2 and grant-flags only
// when it grants stream multiplexing — otherwise it replies version 1 and
// the session proceeds exactly as the fast v1 flow.
const (
	fastProtoVersion    = 1
	fastProtoVersionMux = 2
)

// Feature bits negotiated by a version-2 fast hello. LZ compression is
// only ever granted together with mux — the compressed flag lives in the
// per-frame mux envelope, so there is nowhere to signal it without one.
const (
	featureMux = 1 << 0 // multiplex N logical streams over the connection
	featureLZ  = 1 << 1 // per-frame internal/lz payload compression
)

// ErrFastSyncRejected marks a fast-path msgHelloV1 open that the peer
// answered with msgError instead of msgHelloReplyV1 — the signature of a
// legacy peer that only speaks the multi-RTT flow (or a server that
// rejected the session outright). Callers that hold the dial (Client
// does) retry once over a fresh connection with the legacy negotiation;
// Set.Sync callers on a borrowed connection can do the same with
// WithFastSync(false).
var ErrFastSyncRejected = errors.New("pbs: peer rejected fast-path hello")

// ErrVerificationFailed is returned by SyncInitiator when the strong
// multiset-hash verification disagrees after the protocol reported
// completion — the ~2^−|sig| false-checksum event of §2.2.3.
var ErrVerificationFailed = errors.New("pbs: strong verification failed")

// maxFrame bounds a frame to keep a malicious peer from forcing huge
// allocations.
const maxFrame = 64 << 20

// frameCoalesceLimit is the largest frame batch that gets copied into one
// contiguous buffer for a single Write. Beyond it, frames go out as a
// net.Buffers vector — one writev on a real TCP connection — instead of
// memcpy'ing megabytes.
const frameCoalesceLimit = 256 << 10

// appendFrame serializes one frame (length prefix, type, payload) onto dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// writeFrame emits one frame in a single Write: header and payload used to
// go out as two conn.Write calls, which on a TCP connection meant two
// segments (or a Nagle stall) per frame and dominated loopback sync
// latency. Small frames are coalesced through a pooled buffer; large ones
// go out as a gather write.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) <= frameCoalesceLimit {
		buf := getPayloadBuf()
		b := appendFrame((*buf)[:0], typ, payload)
		_, err := w.Write(b)
		*buf = b[:0]
		putPayloadBuf(buf)
		return err
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// writeFrames sends every frame a session step produced, in order,
// coalesced into one Write (one syscall, one TCP segment train) whenever
// the batch fits frameCoalesceLimit, and into one gather write otherwise.
func writeFrames(w io.Writer, frames []Frame) error {
	switch len(frames) {
	case 0:
		return nil
	case 1:
		return writeFrame(w, frames[0].Type, frames[0].Payload)
	}
	total := 0
	for _, f := range frames {
		total += 5 + len(f.Payload)
	}
	if total <= frameCoalesceLimit {
		buf := getPayloadBuf()
		b := (*buf)[:0]
		for _, f := range frames {
			b = appendFrame(b, f.Type, f.Payload)
		}
		_, err := w.Write(b)
		*buf = b[:0]
		putPayloadBuf(buf)
		return err
	}
	hdrs := make([]byte, 5*len(frames))
	bufs := make(net.Buffers, 0, 2*len(frames))
	for i, f := range frames {
		h := hdrs[5*i : 5*i+5]
		binary.BigEndian.PutUint32(h[:4], uint32(len(f.Payload)))
		h[4] = f.Type
		bufs = append(bufs, h)
		if len(f.Payload) > 0 {
			bufs = append(bufs, f.Payload)
		}
	}
	_, err := bufs.WriteTo(w)
	return err
}

// setNoDelay disables Nagle's algorithm on TCP connections. Go already
// defaults TCP_NODELAY on, but the single-RTT fast path depends on it, so
// every accept and dial sets it explicitly rather than trusting a default
// that platform-specific dialers have been known to change.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return readFrameInto(r, maxFrame, nil)
}

// frameChunk is the increment readFrameInto grows a payload buffer by, so
// held memory tracks bytes actually delivered rather than bytes claimed.
const frameChunk = 256 << 10

// frameLimitError reports a frame rejected on its declared size alone,
// before any payload was read. The Server matches on it to tell a
// budget-capped rejection apart from transport failures.
type frameLimitError struct{ n uint32 }

func (e *frameLimitError) Error() string {
	return fmt.Sprintf("pbs: frame of %d bytes exceeds limit", e.n)
}

// readFrameInto reads one frame whose payload may not exceed limit into
// buf's capacity (buf must have length 0; nil allocates). The payload
// buffer grows chunk-wise as data arrives: a peer that declares a huge
// frame and then stalls pins (at most) one chunk, not the claimed size —
// the allocation-amplification defense the Server relies on when it
// multiplies connections by the hundreds. A session pump that hands the
// previous frame's buffer back in reads its whole exchange into one
// steadily-sized allocation instead of one fresh payload per frame — with
// thousands of concurrent sessions the difference is most of the server's
// allocation churn. The returned payload aliases buf whenever it fits, so
// callers must not hand the buffer to a new frame read while the previous
// payload is still in use; the chunk-wise growth applies only to capacity
// beyond what buf already owns.
func readFrameInto(r io.Reader, limit uint32, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > limit {
		return 0, nil, &frameLimitError{n: n}
	}
	payload = buf[:0]
	for uint32(len(payload)) < n {
		take := n - uint32(len(payload))
		// Capacity already owned is free to fill in one read; beyond it,
		// grow by at most one chunk per read.
		if owned := uint32(cap(payload) - len(payload)); owned > 0 && take > owned {
			take = owned
		} else if owned == 0 && take > frameChunk {
			take = frameChunk
		}
		start := len(payload)
		payload = slices.Grow(payload, int(take))[:start+int(take)]
		if _, err = io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, err
		}
	}
	return hdr[4], payload, nil
}

// payloadPool recycles frame payload buffers across sessions and
// connections. Buffers that ballooned past maxPooledBuf (a legitimately
// huge frame) are dropped instead of pinned in the pool.
var payloadPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

const maxPooledBuf = 1 << 20

func getPayloadBuf() *[]byte { return payloadPool.Get().(*[]byte) }

// poolableBuf reports whether a payload buffer of capacity c may return
// to payloadPool: a single near-maxFrame hostile frame must not pin tens
// of megabytes in the pool forever.
func poolableBuf(c int) bool { return c <= maxPooledBuf }

func putPayloadBuf(b *[]byte) {
	if poolableBuf(cap(*b)) {
		*b = (*b)[:0]
		payloadPool.Put(b)
	}
}

// encodeSketches serializes ToW sketch values as zigzag varints.
func encodeSketches(ys []int64) []byte {
	buf := make([]byte, 0, len(ys)*3+10)
	buf = binary.AppendUvarint(buf, uint64(len(ys)))
	for _, y := range ys {
		buf = binary.AppendVarint(buf, y)
	}
	return buf
}

func decodeSketches(b []byte) ([]int64, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("pbs: bad sketch count")
	}
	b = b[k:]
	ys := make([]int64, n)
	for i := range ys {
		v, k := binary.Varint(b)
		if k <= 0 {
			return nil, fmt.Errorf("pbs: truncated sketches")
		}
		ys[i] = v
		b = b[k:]
	}
	// A corrupted frame must fail loudly, not half-parse: the declared
	// count has to consume the payload exactly.
	if len(b) != 0 {
		return nil, fmt.Errorf("pbs: %d trailing bytes after sketches", len(b))
	}
	return ys, nil
}

// Fast-path payload layouts. Every variable-length field is
// uvarint-length-prefixed except the round-1 message, which runs to the
// end of the frame (it is last, and its own codec rejects trailing bytes).
//
//	msgHelloV1:      version | flags | len(name) name | d_spec |
//	                 len(sketches) sketches | round-1 message
//	msgHelloReplyV1: version | flags | d̂ | [len(digest) digest] |
//	                 round-1 reply
const (
	fastHelloFlagWantDigest   = 1 << 0 // initiator asks for the verify digest
	fastHelloFlagWantMux      = 1 << 1 // v2: initiator offers stream multiplexing
	fastHelloFlagWantLZ       = 1 << 2 // v2: initiator offers lz frame compression
	fastHelloFlagWantAdaptive = 1 << 3 // initiator offers adaptive round re-planning

	fastReplyFlagAnswered = 1 << 0 // the speculative round was answered
	fastReplyFlagDigest   = 1 << 1 // a verification digest is attached
	fastReplyFlagMux      = 1 << 2 // v2: responder granted multiplexing
	fastReplyFlagLZ       = 1 << 3 // v2: responder granted lz compression
	fastReplyFlagAdaptive = 1 << 4 // responder granted adaptive round re-planning
)

// Adaptive round re-planning is negotiated in the same hello exchange but
// independently of the version-2 feature bits: it needs no mux envelope,
// so it works on a plain version-1 fast session. The grant is carried as a
// reply flag rather than a feature bit because version-1 replies must keep
// an empty feature set (initiators reject anything else). Peers that
// predate the flag ignore unknown bits on both sides, so the offer
// degrades to a static-plan session, never an error. Once granted, every
// round message with round number ≥ 2 carries a re-derived (m, t) header —
// see internal/core's adaptive round format.

// maxFastNameLen bounds the set name carried in a fast hello (the legacy
// msgHello is implicitly bounded by the frame limit; here the name shares
// the frame with the sketch and round payloads, so it gets its own cap).
const maxFastNameLen = 1 << 10

// fastHello is the decoded form of a msgHelloV1 payload. Byte-slice
// fields alias the frame payload; Step consumes them before returning.
type fastHello struct {
	version      uint64
	wantDigest   bool
	wantAdaptive bool   // initiator offers adaptive round re-planning
	features     uint64 // requested feature bits (featureMux | featureLZ), v2 only
	name         string
	specD        uint64 // speculative difference bound the round was sized for
	sketches     []byte // encodeSketches form
	round1       []byte // Alice's round 1 built under plan(specD)
}

func appendFastHello(dst []byte, h fastHello) []byte {
	dst = binary.AppendUvarint(dst, h.version)
	var flags uint64
	if h.wantDigest {
		flags |= fastHelloFlagWantDigest
	}
	if h.wantAdaptive {
		flags |= fastHelloFlagWantAdaptive
	}
	if h.features&featureMux != 0 {
		flags |= fastHelloFlagWantMux
	}
	if h.features&featureLZ != 0 {
		flags |= fastHelloFlagWantLZ
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(h.name)))
	dst = append(dst, h.name...)
	dst = binary.AppendUvarint(dst, h.specD)
	dst = binary.AppendUvarint(dst, uint64(len(h.sketches)))
	dst = append(dst, h.sketches...)
	return append(dst, h.round1...)
}

// cutUvarint decodes one uvarint off the front of b.
func cutUvarint(b []byte, what string) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("pbs: fast hello: truncated %s", what)
	}
	return v, b[k:], nil
}

// cutBytes decodes a uvarint-length-prefixed byte field off the front of
// b, bounding the declared length by limit.
func cutBytes(b []byte, limit uint64, what string) ([]byte, []byte, error) {
	n, b, err := cutUvarint(b, what)
	if err != nil {
		return nil, nil, err
	}
	if n > limit || n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("pbs: fast hello: oversized %s", what)
	}
	return b[:n], b[n:], nil
}

func parseFastHello(b []byte) (h fastHello, err error) {
	if h.version, b, err = cutUvarint(b, "version"); err != nil {
		return fastHello{}, err
	}
	flags, b, err := cutUvarint(b, "flags")
	if err != nil {
		return fastHello{}, err
	}
	h.wantDigest = flags&fastHelloFlagWantDigest != 0
	h.wantAdaptive = flags&fastHelloFlagWantAdaptive != 0
	if flags&fastHelloFlagWantMux != 0 {
		h.features |= featureMux
	}
	if flags&fastHelloFlagWantLZ != 0 {
		h.features |= featureLZ
	}
	name, b, err := cutBytes(b, maxFastNameLen, "set name")
	if err != nil {
		return fastHello{}, err
	}
	h.name = string(name)
	if h.specD, b, err = cutUvarint(b, "d_spec"); err != nil {
		return fastHello{}, err
	}
	if h.sketches, b, err = cutBytes(b, uint64(len(b)), "sketches"); err != nil {
		return fastHello{}, err
	}
	h.round1 = b
	return h, nil
}

// fastHelloSetName extracts just the set name from a msgHelloV1 payload —
// the Server admits a connection to a registered set before handing the
// frame to the session engine, exactly as it does for a legacy msgHello.
func fastHelloSetName(b []byte) (string, error) {
	h, err := parseFastHello(b)
	if err != nil {
		return "", err
	}
	return h.name, nil
}

// fastHelloReply is the decoded form of a msgHelloReplyV1 payload.
type fastHelloReply struct {
	version    uint64
	answered   bool
	adaptive   bool   // responder granted adaptive round re-planning
	features   uint64 // granted feature bits, v2 only (subset of the request)
	dhat       uint64 // true estimate from the piggybacked sketches
	digest     []byte // nil, or the strong-verification digest
	roundReply []byte // Bob's round-1 reply when answered
}

func appendFastHelloReply(dst []byte, r fastHelloReply) []byte {
	dst = binary.AppendUvarint(dst, r.version)
	var flags uint64
	if r.answered {
		flags |= fastReplyFlagAnswered
	}
	if r.digest != nil {
		flags |= fastReplyFlagDigest
	}
	if r.adaptive {
		flags |= fastReplyFlagAdaptive
	}
	if r.features&featureMux != 0 {
		flags |= fastReplyFlagMux
	}
	if r.features&featureLZ != 0 {
		flags |= fastReplyFlagLZ
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, r.dhat)
	if r.digest != nil {
		dst = binary.AppendUvarint(dst, uint64(len(r.digest)))
		dst = append(dst, r.digest...)
	}
	return append(dst, r.roundReply...)
}

func parseFastHelloReply(b []byte) (r fastHelloReply, err error) {
	if r.version, b, err = cutUvarint(b, "reply version"); err != nil {
		return fastHelloReply{}, err
	}
	flags, b, err := cutUvarint(b, "reply flags")
	if err != nil {
		return fastHelloReply{}, err
	}
	r.answered = flags&fastReplyFlagAnswered != 0
	r.adaptive = flags&fastReplyFlagAdaptive != 0
	if flags&fastReplyFlagMux != 0 {
		r.features |= featureMux
	}
	if flags&fastReplyFlagLZ != 0 {
		r.features |= featureLZ
	}
	if r.dhat, b, err = cutUvarint(b, "d̂"); err != nil {
		return fastHelloReply{}, err
	}
	if flags&fastReplyFlagDigest != 0 {
		if r.digest, b, err = cutBytes(b, 64, "digest"); err != nil {
			return fastHelloReply{}, err
		}
	}
	if r.answered {
		r.roundReply = b
	} else if len(b) != 0 {
		return fastHelloReply{}, fmt.Errorf("pbs: fast hello: %d trailing bytes after declined reply", len(b))
	}
	return r, nil
}

// syncPlan derives the shared plan from the agreed d̂ — both sides must
// compute exactly the same Plan, so everything here is deterministic.
func syncPlan(dhatRounded uint64, opt Options) (core.Plan, error) {
	d := estimator.ConservativeD(float64(dhatRounded), opt.Gamma)
	return core.NewPlan(d, opt.coreConfig())
}

// deadlineConn is the deadline-capable subset of net.Conn the frame pumps
// use to honor context cancellation and idle timeouts. Any net.Conn
// (including net.Pipe ends) implements it.
type deadlineConn interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// aLongTimeAgo is a deadline certainly in the past: setting it unblocks
// any in-flight read or write immediately (the net/http interruption
// idiom).
var aLongTimeAgo = time.Unix(1, 0)

// framePump moves frames between a connection and a session under a
// context: the context's deadline (and the optional per-frame idle bound)
// are plumbed into the connection's read/write deadlines, and cancellation
// poisons the deadlines so blocked I/O returns immediately. On a bare
// io.ReadWriter without deadline support, cancellation is only observed
// between frames.
type framePump struct {
	ctx         context.Context
	conn        io.ReadWriter
	dl          deadlineConn // nil when conn cannot take deadlines
	idle        time.Duration
	ctxDeadline time.Time // zero when ctx has no deadline
	armed       bool      // a deadline was ever set on the conn
	buf         *[]byte   // pooled payload buffer reused across frames
}

// newFramePump builds a pump and starts the cancellation watcher. The
// returned stop function must be called when pumping ends; it releases the
// watcher goroutine (guaranteeing none is leaked, cancelled or not) and
// clears any deadline the pump set, so the caller gets its connection back
// in the state it lent it — reusable for a follow-up protocol.
func newFramePump(ctx context.Context, conn io.ReadWriter, idle time.Duration) (*framePump, func()) {
	p := &framePump{ctx: ctx, conn: conn, idle: idle, buf: getPayloadBuf()}
	p.dl, _ = conn.(deadlineConn)
	if d, ok := ctx.Deadline(); ok {
		p.ctxDeadline = d
	}
	var (
		done   chan struct{}
		exited chan struct{}
	)
	if p.dl != nil && ctx.Done() != nil {
		done = make(chan struct{})
		exited = make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-ctx.Done():
				p.armed = true
				p.dl.SetReadDeadline(aLongTimeAgo)
				p.dl.SetWriteDeadline(aLongTimeAgo)
			case <-done:
			}
		}()
	}
	stop := func() {
		if done != nil {
			close(done)
			// Wait the watcher out so its poisoning cannot land after the
			// reset below (the channels also order its p.armed write).
			<-exited
		}
		if p.dl != nil && p.armed {
			p.dl.SetReadDeadline(time.Time{})
			p.dl.SetWriteDeadline(time.Time{})
		}
		if p.buf != nil {
			putPayloadBuf(p.buf)
			p.buf = nil
		}
	}
	return p, stop
}

// deadline returns the effective per-operation deadline: the sooner of the
// context deadline and now+idle; zero when neither applies.
func (p *framePump) deadline() time.Time {
	d := p.ctxDeadline
	if p.idle > 0 {
		if id := time.Now().Add(p.idle); d.IsZero() || id.Before(d) {
			d = id
		}
	}
	return d
}

// armRead prepares the connection for one frame read. The post-set
// re-check closes the race where cancellation fires between the check and
// the deadline store: whichever of the watcher and this sequence runs
// last leaves the poisoned deadline in place.
func (p *framePump) armRead() {
	if p.dl == nil {
		return
	}
	if d := p.deadline(); !d.IsZero() {
		p.armed = true
		p.dl.SetReadDeadline(d)
	}
	if p.ctx.Err() != nil {
		p.armed = true
		p.dl.SetReadDeadline(aLongTimeAgo)
	}
}

func (p *framePump) armWrite() {
	if p.dl == nil {
		return
	}
	if d := p.deadline(); !d.IsZero() {
		p.armed = true
		p.dl.SetWriteDeadline(d)
	}
	if p.ctx.Err() != nil {
		p.armed = true
		p.dl.SetWriteDeadline(aLongTimeAgo)
	}
}

// readFrame reads one frame, honoring cancellation and deadlines. The
// payload is read into the pump's pooled buffer, valid until the next
// readFrame: session Steps fully consume a payload before returning, so
// one steady buffer serves the whole exchange.
func (p *framePump) readFrame() (byte, []byte, error) {
	if err := p.ctx.Err(); err != nil {
		return 0, nil, err
	}
	p.armRead()
	typ, payload, err := readFrameInto(p.conn, maxFrame, (*p.buf)[:0])
	if payload != nil {
		*p.buf = payload[:0]
	}
	if err != nil {
		return 0, nil, p.mapErr(err)
	}
	return typ, payload, nil
}

// writeFrames sends every frame a session step produced, in order.
func (p *framePump) writeFrames(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	p.armWrite()
	return p.mapErr(writeFrames(p.conn, frames))
}

// mapErr attributes an I/O failure to the context when the context ended:
// the poisoned-deadline interruption surfaces as a timeout error from the
// conn, but the caller asked for cancellation and gets ctx.Err(). A
// timeout at or past the context deadline is attributed the same way even
// if the context's own timer has not fired yet — the conn deadline and the
// ctx timer are armed for the same instant and can resolve in either
// order.
func (p *framePump) mapErr(err error) error {
	if err == nil {
		return nil
	}
	if cerr := p.ctx.Err(); cerr != nil {
		return cerr
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() &&
		!p.ctxDeadline.IsZero() && !time.Now().Before(p.ctxDeadline) {
		return context.DeadlineExceeded
	}
	return err
}

// runInitiator pumps an initiator session over conn until done, the
// context ends, or the exchange fails.
func runInitiator(ctx context.Context, conn io.ReadWriter, s *InitiatorSession, opening []Frame, idle time.Duration) (*Result, error) {
	p, stop := newFramePump(ctx, conn, idle)
	defer stop()
	if err := p.writeFrames(opening); err != nil {
		return nil, err
	}
	for {
		typ, payload, err := p.readFrame()
		if err != nil {
			return nil, err
		}
		out, done, stepErr := s.Step(typ, payload)
		// Frames are flushed even on error: a failed strong verification
		// still closes the session with msgDone.
		if werr := p.writeFrames(out); werr != nil && stepErr == nil {
			stepErr = werr
		}
		if stepErr != nil {
			return nil, stepErr
		}
		if done {
			return s.Result(), nil
		}
	}
}

// runResponder pumps a responder session over conn until the initiator
// closes it, the context ends, or the exchange fails. Step failures are
// reported to the peer as a msgError frame before returning, so a blocking
// initiator gets the diagnostic instead of waiting forever on a reply that
// will never come.
func runResponder(ctx context.Context, conn io.ReadWriter, s *ResponderSession, idle time.Duration) error {
	p, stop := newFramePump(ctx, conn, idle)
	defer stop()
	for {
		typ, payload, err := p.readFrame()
		if err != nil {
			return err
		}
		out, done, stepErr := s.Step(typ, payload)
		if werr := p.writeFrames(out); werr != nil && stepErr == nil {
			stepErr = werr
		}
		if stepErr != nil {
			notifyPeerError(conn, stepErr)
			return stepErr
		}
		if done {
			return nil
		}
	}
}

// SyncInitiator runs the full protocol over conn and learns the set
// difference. It blocks until the exchange completes or fails. The
// responder side must run SyncResponder (or a server-driven
// ResponderSession) with identical Options.
//
// SyncInitiator is the pre-Set spelling of Set.Sync with a background
// context; prefer the Set form, which adds cancellation, deadlines,
// streaming deltas, and state reuse across repeated syncs. The wire bytes
// are identical either way.
func SyncInitiator(set []uint64, conn io.ReadWriter, o *Options) (*Result, error) {
	s, opening, err := NewInitiatorSession(set, o)
	if err != nil {
		return nil, err
	}
	return runInitiator(context.Background(), conn, s, opening, 0)
}

// SyncResponder serves one full protocol session over conn. It returns nil
// when the initiator signals completion.
//
// SyncResponder is the pre-Set spelling of Set.Respond with a background
// context; prefer the Set form. The wire bytes are identical either way.
func SyncResponder(set []uint64, conn io.ReadWriter, o *Options) error {
	s, err := NewResponderSession(set, o)
	if err != nil {
		return err
	}
	return runResponder(context.Background(), conn, s, 0)
}

// notifyPeerError best-effort sends a msgError diagnostic. The write is
// bounded by a deadline when the transport supports one; on a bare
// io.ReadWriter (where an unread write could block forever) it is skipped.
func notifyPeerError(conn io.ReadWriter, stepErr error) {
	dw, ok := conn.(interface{ SetWriteDeadline(time.Time) error })
	if !ok {
		return
	}
	dw.SetWriteDeadline(time.Now().Add(time.Second))
	writeFrame(conn, msgError, []byte(stepErr.Error()))
	dw.SetWriteDeadline(time.Time{})
}
