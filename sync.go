package pbs

import (
	"context"
	"errors"
	"io"
	"net"
	"time"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/frame"
)

// This file implements the blocking wire protocol over an io.ReadWriter:
// the Tug-of-War estimate (§6.2), deterministic parameter derivation on
// both sides, the multi-round PBS exchange (§2), and an optional strong
// final verification using a multiset hash (the §2.2.3 hardening). The
// protocol logic itself lives in the non-blocking session engine
// (session.go) and every byte layout in internal/frame (whose package
// comment has the message flow); the pumps here only move frames between a
// connection and a session, and the concurrent Server (server.go) drives
// the same engine for many connections at once.
//
// Every parameter both sides must share (seed, δ, p0, r, signature width)
// travels out of band in Options, as a deployment would pin them in its
// protocol version. Options.Parallelism is the exception: it only sizes the
// local worker pool for per-group decoding, produces byte-identical frames
// for any value, and so may differ freely between the two endpoints.
//
// Opening a session (protocol version 1): the initiator sends one
// msgHelloV1 frame carrying the protocol version, the set name, its ToW
// sketches, a speculative difference bound d_spec, and round 1 already
// built under the plan derived from d_spec. The responder computes the
// true d̂ from the piggybacked sketches and answers with one
// msgHelloReplyV1 frame: d̂, the round-1 reply when the speculation was
// adequately sized (PBS is piecewise decodable, so an undersized
// speculative round degrades into 3-way splits in round 2 instead of
// failing), and — when requested — the strong-verification digest, so
// even StrongVerify sessions finish in one round trip. When the responder
// declines the speculation (d̂ far above d_spec), both sides
// deterministically re-plan from d̂ and continue with msgRound. A peer
// that refuses the hello answers with msgError, which the initiator
// surfaces as a *PeerError, as it does a refusal at any later step.

// Frame is one protocol message: Type, its message-type byte, and Payload,
// its body. The wire representation adds the 4-byte length prefix.
type Frame = frame.Frame

// ErrVerificationFailed is returned by Set.Sync (and Client) when the strong
// multiset-hash verification disagrees after the protocol reported
// completion — the ~2^−|sig| false-checksum event of §2.2.3.
var ErrVerificationFailed = errors.New("pbs: strong verification failed")

// setNoDelay disables Nagle's algorithm on TCP connections. Go already
// defaults TCP_NODELAY on, but the single-RTT fast path depends on it, so
// every accept and dial sets it explicitly rather than trusting a default
// that platform-specific dialers have been known to change.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
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
	p := &framePump{ctx: ctx, conn: conn, idle: idle, buf: frame.GetBuf()}
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
			frame.PutBuf(p.buf)
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
	typ, payload, err := frame.ReadInto(p.conn, frame.MaxFrame, (*p.buf)[:0])
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
	_, err := frame.WriteAll(p.conn, frames)
	return p.mapErr(err)
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

// stepper is what pumpSession drives: either session engine.
type stepper interface {
	Step(typ byte, payload []byte) ([]Frame, bool, error)
}

// pumpSession drives one session engine over conn — opening frames out,
// then every received frame through Step and its replies back — until the
// session is done, the context ends, or the exchange fails. With notify
// set (the responder side) a Step failure is reported to the peer as a
// msgError frame before returning, so a blocking initiator gets the
// diagnostic instead of waiting forever on a reply that will never come.
func pumpSession(ctx context.Context, conn io.ReadWriter, s stepper, opening []Frame, idle time.Duration, notify bool) error {
	p, stop := newFramePump(ctx, conn, idle)
	defer stop()
	if err := p.writeFrames(opening); err != nil {
		return err
	}
	for {
		typ, payload, err := p.readFrame()
		if err != nil {
			return err
		}
		out, done, stepErr := s.Step(typ, payload)
		// Frames are flushed even on error: a failed strong verification
		// still closes the session with msgDone.
		if werr := p.writeFrames(out); werr != nil && stepErr == nil {
			stepErr = werr
		}
		if stepErr != nil && notify {
			notifyPeerError(conn, stepErr)
		}
		if stepErr != nil || done {
			return stepErr
		}
	}
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
	frame.WriteAll(conn, oneFrame(frame.MsgError, []byte(stepErr.Error())))
	dw.SetWriteDeadline(time.Time{})
}
