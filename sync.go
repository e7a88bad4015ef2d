package pbs

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
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
// comment has the message flow). The one pump here, pumpSession, only
// moves frames between a connection and a stepper: for Set.Sync, for
// Set.Respond, and for every raw session a Server runs (server.go).
//
// Every parameter both sides must share (seed, δ, p0, r, signature width)
// travels out of band in Options, as a deployment would pin them in its
// protocol version. Options.Parallelism is the exception: it only sizes the
// local worker pool for per-group decoding, produces byte-identical frames
// for any value, and so may differ freely between the two endpoints.
//
// A session opens with one msgHelloV1 (the initiator's sketches and a
// speculative round 1 sized by d_spec) and its msgHelloReplyV1 (d̂, the
// round-1 reply unless d̂ is far above d_spec, and the digest when asked
// for), so most syncs finish in one round trip. PBS is piecewise decodable:
// an undersized speculative round degrades into 3-way splits in round 2.
// A declined speculation re-plans both sides from d̂, deterministically,
// and goes on in msgRound. A refusal at any step is a msgError, which the
// initiator surfaces as a *PeerError.

// ErrVerificationFailed is returned by Set.Sync when the strong
// multiset-hash verification disagrees after the protocol reported
// completion — the ~2^−|sig| false-checksum event of §2.2.3.
var ErrVerificationFailed = errors.New("pbs: strong verification failed")

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

	// in and out, when set, count the wire bytes of every frame read and
	// of every write that succeeded (a Server's BytesIn and BytesOut).
	in, out *atomic.Int64
}

// newFramePump builds a pump and registers the cancellation hook. The
// returned stop function must be called when pumping ends; it deregisters
// the hook (waiting it out if it already started) and clears any deadline
// the pump set, so the caller gets its connection back in the state it
// lent it — reusable for a follow-up protocol.
func newFramePump(ctx context.Context, conn io.ReadWriter, idle time.Duration) (*framePump, func()) {
	p := &framePump{ctx: ctx, conn: conn, idle: idle, buf: frame.GetBuf()}
	p.dl, _ = conn.(deadlineConn)
	if d, ok := ctx.Deadline(); ok {
		p.ctxDeadline = d
	}
	stopHook := func() bool { return true }
	var poisoned chan struct{}
	if p.dl != nil && ctx.Done() != nil {
		poisoned = make(chan struct{})
		stopHook = context.AfterFunc(ctx, func() {
			defer close(poisoned)
			p.dl.SetReadDeadline(aLongTimeAgo)
			p.dl.SetWriteDeadline(aLongTimeAgo)
		})
	}
	stop := func() {
		if !stopHook() {
			// The hook already started: wait it out so its poisoning
			// cannot land after the reset below.
			<-poisoned
			p.armed = true
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

// arm sets the connection's read (or write) deadline for one operation.
// The post-set re-check closes the race where cancellation fires between
// the check and the deadline store: whichever of the cancellation hook and
// this sequence runs last leaves the poisoned deadline in place.
func (p *framePump) arm(read bool) {
	if p.dl == nil {
		return
	}
	set := p.dl.SetWriteDeadline
	if read {
		set = p.dl.SetReadDeadline
	}
	if d := p.deadline(); !d.IsZero() {
		p.armed = true
		set(d)
	}
	if p.ctx.Err() != nil {
		p.armed = true
		set(aLongTimeAgo)
	}
}

// readFrame reads one frame of at most limit payload bytes, honoring
// cancellation and deadlines. The payload is read into the pump's pooled
// buffer, valid until the next readFrame: session Steps fully consume a
// payload before returning, so one steady buffer serves the whole exchange.
func (p *framePump) readFrame(limit uint32) (byte, []byte, error) {
	if err := p.ctx.Err(); err != nil {
		return 0, nil, err
	}
	p.arm(true)
	typ, payload, err := frame.ReadInto(p.conn, limit, (*p.buf)[:0])
	if payload != nil {
		*p.buf = payload[:0]
	}
	if err != nil {
		return 0, nil, p.mapErr(err)
	}
	if p.in != nil {
		p.in.Add(int64(frame.HeaderLen + len(payload)))
	}
	return typ, payload, nil
}

// writeFrames sends every frame a session step produced, in order.
func (p *framePump) writeFrames(frames []frame.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	p.arm(false)
	return p.wrote(frame.WriteAll(p.conn, frames))
}

// write sends b, already framed, as writeFrames does.
func (p *framePump) write(b []byte) error {
	p.arm(false)
	return p.wrote(p.conn.Write(b))
}

func (p *framePump) wrote(n int, err error) error {
	if err == nil && p.out != nil {
		p.out.Add(int64(n))
	}
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

// stepper is what pumpSession drives: either session engine, or the
// Server's policy around a responder (servedSession).
type stepper interface {
	step(typ byte, payload []byte) ([]frame.Frame, bool, error)
}

// A frameLimiter caps the payload of the next frame the pump reads for it.
// A frame declared larger is refused unread, and the refusal is the
// session's failure, reported like a step's.
type frameLimiter interface {
	frameLimit() uint32
}

// pumpSession drives one session over p — opening frames out, then every
// received frame through step and its replies back — until the session is
// done, the context ends, or the exchange fails. A step failure (and a
// frameLimiter's refused frame) goes to report, when set, before the
// session returns, so a blocking peer gets the diagnostic instead of
// waiting forever on a reply that will never come. A failed read or write
// is returned unreported: a diagnostic would only follow it onto the
// broken connection.
func pumpSession(p *framePump, s stepper, opening []frame.Frame, report func(error)) error {
	if err := p.writeFrames(opening); err != nil {
		return err
	}
	limiter, _ := s.(frameLimiter)
	for {
		limit := uint32(frame.MaxFrame)
		if limiter != nil {
			limit = limiter.frameLimit()
		}
		typ, payload, err := p.readFrame(limit)
		if err != nil {
			var fle *frame.LimitError
			if limiter != nil && report != nil && errors.As(err, &fle) {
				report(err)
			}
			return err
		}
		out, done, err := s.step(typ, payload)
		// Frames are flushed even on error: a failed strong verification
		// still closes the session with msgDone.
		if werr := p.writeFrames(out); werr != nil {
			if err == nil {
				err = werr
			}
			return err
		}
		if err != nil {
			if report != nil {
				report(err)
			}
			return err
		}
		if done {
			return nil
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
