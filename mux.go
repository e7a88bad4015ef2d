package pbs

// Stream multiplexing: protocol version 2. After a version-2 fast hello
// negotiates the mux feature, every frame on the connection keeps the v1
// outer header but its payload gains the mux envelope (frame.Seal and
// frame.Open own its layout), so N logical sessions interleave over one
// connection, each stream driven by its own independent session engine. The
// outer framing, frame budgets, and coalesced-write path are untouched, and
// a connection that never negotiates v2 never sees an envelope byte — the
// version-1 wire format stays byte-identical.
//
// Negotiation rides the existing single-RTT hello, so it costs zero extra
// round trips: the first stream taken from a MuxConn sends the fast hello
// with want-flags, and the switch to enveloped framing happens at the
// hello-reply boundary — a point where the fast-path initiator is
// guaranteed silent (it sends nothing between hello and reply), so neither
// side can misparse an in-flight frame under the old framing.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"pbs/internal/frame"
)

// maxStreamID caps client-allocated stream IDs; beyond it Stream returns
// ErrStreamsExhausted rather than risking varint ambiguity at the top of
// the uint64 range. At one sync per stream this allows 2^62 syncs per
// dialed connection, so exhaustion in practice means a counting bug.
const maxStreamID = 1 << 62

// muxInboxDepth bounds per-stream frames buffered between the shared
// reader and a stream's consumer. The session protocol is strictly
// request/response per stream, so more than a couple of undelivered
// frames means the peer is flooding; overflowing streams are torn down
// instead of letting one slow consumer wedge the whole connection.
const muxInboxDepth = 16

var (
	// ErrMuxDeclined reports that the peer answered the negotiating sync
	// without granting multiplexing (a v1-only peer, or a server with mux
	// disabled). The first stream's sync still completed as a plain fast
	// sync; callers fall back to one connection per session.
	ErrMuxDeclined = errors.New("pbs: peer declined stream multiplexing")
	// ErrMuxClosed reports use of a MuxConn after Close or after the
	// underlying connection failed.
	ErrMuxClosed = errors.New("pbs: mux connection closed")
	// ErrStreamsExhausted reports that the connection has allocated all
	// maxStreamID stream IDs; dial a fresh connection.
	ErrStreamsExhausted = errors.New("pbs: mux stream IDs exhausted")
)

// featureRequester lets a connection ask Set.Sync to fold a protocol
// feature request into its fast hello. The negotiating MuxStream is the
// one implementation; everything else syncs with an empty request and a
// byte-identical version-1 hello.
type featureRequester interface{ muxFeatureRequest() uint64 }

// muxDeadline makes a time.Time deadline selectable: wait returns a
// channel that closes once the current deadline passes, and set replaces
// the deadline, closing immediately when it is already in the past — the
// poisoned-deadline interruption idiom framePump relies on, rebuilt for a
// stream whose reads block on a channel instead of a socket.
type muxDeadline struct {
	mu    sync.Mutex
	timer *time.Timer
	ch    chan struct{} // nil = no deadline; closed = expired
}

func (d *muxDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil {
		// A stopped-too-late timer closes the channel it captured, which is
		// no longer the live one — harmless either way.
		d.timer.Stop()
		d.timer = nil
	}
	if t.IsZero() {
		d.ch = nil
		return
	}
	ch := make(chan struct{})
	d.ch = ch
	if dur := time.Until(t); dur <= 0 {
		close(ch)
	} else {
		d.timer = time.AfterFunc(dur, func() { close(ch) })
	}
}

// wait returns the current deadline channel; nil (blocks forever in a
// select) when no deadline is set.
func (d *muxDeadline) wait() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ch
}

func (d *muxDeadline) expired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ch == nil {
		return false
	}
	select {
	case <-d.ch:
		return true
	default:
		return false
	}
}

const (
	muxNegotiating = iota // hello in flight (or not yet sent)
	muxOn                 // peer granted mux: enveloped framing
	muxPassthrough        // peer declined: raw framing, single stream
	muxDead               // connection closed or failed
)

// MuxConn multiplexes many concurrent Set.Sync sessions over one dialed
// connection. Take streams with Stream; each stream is a net.Conn that
// carries exactly one sync session. The first stream is the negotiator:
// its Set.Sync piggybacks the feature request on the hello, and every
// later Stream call blocks until that reply lands. If the peer declines —
// a Set.Respond peer or a mux-disabled server — the first sync still
// completes as a plain fast sync and later Stream calls return
// ErrMuxDeclined so callers can fall back to a connection per session.
//
// Retry and chaos layers compose per-stream: wrap the dialed net.Conn
// before handing it to NewMuxConn and every stream's traffic flows through
// the wrapper; a RetryPolicy whose Dial returns fresh streams retries
// individual syncs without re-dialing.
type MuxConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes writes to conn

	mu              sync.Mutex
	state           int
	granted         bool
	err             error         // first terminal connection error
	negCh           chan struct{} // closed once negotiation resolves (or dies)
	streams         map[uint64]*MuxStream
	nextID          uint64
	negotiatorTaken bool
}

// MuxOption configures a MuxConn.
type MuxOption func(*MuxConn)

// WithMuxCompression is a no-op.
//
// Deprecated: the mux envelope carries no compression. PBS payloads are
// parity bitmaps, BCH codewords and XOR sums, which lz cannot shrink.
func WithMuxCompression(bool) MuxOption { return func(*MuxConn) {} }

// NewMuxConn wraps a dialed connection for stream multiplexing and starts
// its demultiplexing reader. The caller must run a fast-path Set.Sync on
// the first stream promptly — it carries the negotiation every other
// stream waits on. Close the MuxConn (not the inner conn) when done.
func NewMuxConn(conn net.Conn, opts ...MuxOption) *MuxConn {
	m := &MuxConn{
		conn:    conn,
		negCh:   make(chan struct{}),
		streams: make(map[uint64]*MuxStream),
		nextID:  2, // 1 is the negotiator
	}
	for _, o := range opts {
		o(m)
	}
	go m.readLoop()
	return m
}

// Stream returns a connection carrying one logical sync session. The
// first call returns the negotiator stream immediately; subsequent calls
// block until the peer's hello reply resolves the negotiation.
func (m *MuxConn) Stream() (*MuxStream, error) {
	m.mu.Lock()
	if m.err != nil {
		defer m.mu.Unlock()
		return nil, m.err
	}
	if !m.negotiatorTaken {
		m.negotiatorTaken = true
		st := m.newStreamLocked(1, true)
		m.mu.Unlock()
		return st, nil
	}
	negCh := m.negCh
	m.mu.Unlock()
	<-negCh

	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case muxOn:
		if m.nextID > maxStreamID {
			return nil, ErrStreamsExhausted
		}
		id := m.nextID
		m.nextID++
		return m.newStreamLocked(id, false), nil
	case muxPassthrough:
		return nil, ErrMuxDeclined
	default:
		if m.err != nil {
			return nil, m.err
		}
		return nil, ErrMuxClosed
	}
}

func (m *MuxConn) newStreamLocked(id uint64, negotiator bool) *MuxStream {
	st := &MuxStream{
		m:          m,
		id:         id,
		negotiator: negotiator,
		inbox:      make(chan muxMsg, muxInboxDepth),
		done:       make(chan struct{}),
	}
	m.streams[id] = st
	return st
}

// Granted reports whether the peer granted mux; valid after the
// negotiation resolves (any Stream call past the first has waited for it).
func (m *MuxConn) Granted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.granted
}

// Close closes the underlying connection and fails every open stream.
func (m *MuxConn) Close() error {
	err := m.conn.Close()
	m.fail(ErrMuxClosed)
	return err
}

// fail records the first terminal error, resolves a pending negotiation,
// and tears down every stream. Called by the reader on connection errors
// and by Close.
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	if m.state == muxNegotiating {
		close(m.negCh)
	}
	m.state = muxDead
	streams := make([]*MuxStream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.streams = make(map[uint64]*MuxStream)
	m.mu.Unlock()
	for _, st := range streams {
		st.teardown(err)
	}
}

// resolve records the peer's negotiation answer. Runs on the reader
// goroutine before the resolving frame is delivered, so a consumer that
// has read the hello reply observes the resolved state.
func (m *MuxConn) resolve(granted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != muxNegotiating {
		return
	}
	m.granted = granted&frame.FeatureMux != 0
	if m.granted {
		m.state = muxOn
	} else {
		m.state = muxPassthrough
	}
	close(m.negCh)
}

func (m *MuxConn) muxed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == muxOn
}

func (m *MuxConn) removeStream(id uint64) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

// writeWire writes one pre-framed batch to the connection under the shared
// write lock, with the writing stream's deadline applied for the duration.
// Any write error is terminal for the whole connection: a timed-out or
// short write may have left a partial frame on the wire, after which no
// stream can trust the framing.
func (m *MuxConn) writeWire(b []byte, deadline time.Time) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.conn.SetWriteDeadline(deadline)
	if _, err := m.conn.Write(b); err != nil {
		m.fail(fmt.Errorf("pbs: mux write: %w", err))
		return err
	}
	return nil
}

// readLoop is the demultiplexer: it owns all reads from the connection,
// resolves the negotiation at the hello-reply boundary, and routes frames
// to stream inboxes. Reading into a nil buffer allocates per frame, so
// delivered payloads never alias each other.
func (m *MuxConn) readLoop() {
	for {
		typ, payload, err := frame.ReadInto(m.conn, frame.MaxFrame, nil)
		if err != nil {
			m.fail(fmt.Errorf("pbs: mux read: %w", err))
			return
		}
		m.mu.Lock()
		state := m.state
		m.mu.Unlock()
		// Negotiating or passthrough: every frame belongs to stream 1, as is.
		id, flags, body := uint64(1), uint64(0), payload
		switch state {
		case muxOn:
			if id, flags, body, err = frame.Open(payload); err != nil {
				m.fail(fmt.Errorf("pbs: mux read: %w (type %d)", err, typ))
				return
			}
		case muxNegotiating:
			// The first frame of the conversation resolves the negotiation:
			// a hello reply carries the grant flags; anything else (msgError
			// from a rejecting server) means no grant and permanent
			// passthrough.
			var granted uint64
			if typ == frame.MsgHelloReplyV1 {
				if rep, err := frame.ParseHelloReply(payload); err == nil {
					granted = rep.Features
				}
			}
			m.resolve(granted)
		}
		m.mu.Lock()
		st := m.streams[id]
		m.mu.Unlock()
		// A frame for a stream we already closed is a benign close race:
		// deliver drops it.
		m.deliver(st, typ, body, flags&frame.FlagClose != 0)
	}
}

// deliver hands one frame to a stream without ever blocking the shared
// reader: an inbox that is full means the peer is violating the
// request/response discipline, and only that stream pays for it.
func (m *MuxConn) deliver(st *MuxStream, typ byte, payload []byte, close bool) {
	if st == nil {
		return
	}
	select {
	case st.inbox <- muxMsg{typ: typ, payload: payload}:
	default:
		st.teardown(fmt.Errorf("pbs: mux stream %d inbox overflow", st.id))
		m.removeStream(st.id)
		return
	}
	if close {
		// Remote end is done with the stream: frames already delivered
		// drain first (Read prefers the inbox over the done signal).
		st.teardown(nil)
		m.removeStream(st.id)
	}
}

type muxMsg struct {
	typ     byte
	payload []byte
}

// MuxStream is one logical session's net.Conn over a MuxConn. It speaks
// the ordinary frame wire format to its user — the session engines and
// frame pumps run unmodified — and translates to enveloped frames on the
// shared connection underneath. A stream carries exactly one sync
// session: the session's closing msgDone carries the stream-close flag,
// and a stream closed without one sends a bare msgStreamClose.
type MuxStream struct {
	m          *MuxConn
	id         uint64
	negotiator bool

	// Write side, guarded by wmu. wpending reassembles complete frames
	// out of arbitrary write segmentation (net.Buffers gather writes land
	// here buffer by buffer) before enveloping them.
	wmu       sync.Mutex
	wpending  []byte
	opened    bool
	closeSent bool
	wd        time.Time

	// Read side: the demux reader fills inbox; Read re-frames messages
	// into rbuf. done closes on teardown, err (under emu) holds the
	// terminal error — nil for a clean remote close, which reads as EOF.
	inbox chan muxMsg
	rbuf  []byte
	rd    muxDeadline

	emu      sync.Mutex
	err      error
	tornDown bool
	done     chan struct{}

	closeOnce sync.Once
}

var _ net.Conn = (*MuxStream)(nil)

// muxFeatureRequest implements featureRequester: the negotiator stream
// asks Set.Sync to fold the connection's feature offer into its hello.
func (s *MuxStream) muxFeatureRequest() uint64 {
	if !s.negotiator {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if s.m.state != muxNegotiating {
		return 0
	}
	return frame.FeatureMux
}

func (s *MuxStream) teardown(err error) {
	s.emu.Lock()
	if s.tornDown {
		s.emu.Unlock()
		return
	}
	s.tornDown = true
	s.err = err
	close(s.done)
	s.emu.Unlock()
}

// termErr is what Read reports once the stream is down and drained: the
// terminal error, or io.EOF for a clean close.
func (s *MuxStream) termErr() error {
	s.emu.Lock()
	defer s.emu.Unlock()
	if s.err != nil {
		return s.err
	}
	return io.EOF
}

// raw reports whether writes bypass the envelope: the negotiator before
// the negotiation resolves (its hello IS the negotiation) and forever on
// a passthrough connection. The protocol guarantees the mode never flips
// mid-frame — the fast-path initiator is silent between hello and reply,
// and the reply resolves the mode before its bytes reach the consumer.
func (s *MuxStream) raw() bool {
	if !s.negotiator {
		return false
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.m.state == muxNegotiating || s.m.state == muxPassthrough
}

func (s *MuxStream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for len(s.rbuf) == 0 {
		if s.rd.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		select {
		case msg := <-s.inbox:
			s.rbuf = frame.Append(s.rbuf[:0], msg.typ, msg.payload)
		case <-s.done:
			// Frames delivered before teardown still count: drain the inbox
			// before reporting the terminal state.
			select {
			case msg := <-s.inbox:
				s.rbuf = frame.Append(s.rbuf[:0], msg.typ, msg.payload)
			default:
				return 0, s.termErr()
			}
		case <-s.rd.wait():
			// Deadline fired (or was replaced); re-check at the top.
		}
	}
	n := copy(p, s.rbuf)
	s.rbuf = s.rbuf[n:]
	return n, nil
}

func (s *MuxStream) Write(p []byte) (int, error) {
	select {
	case <-s.done:
		if err := s.termErr(); err != io.EOF {
			return 0, err
		}
		return 0, ErrMuxClosed
	default:
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.raw() {
		// Negotiator on a not-(yet-)muxed connection: bytes pass through
		// verbatim, so arbitrary segmentation is already preserved. The
		// raw hello doubles as the stream's open — if the peer grants mux,
		// its server-side stream 1 already exists, so later enveloped
		// frames must not carry the open flag again.
		if err := s.m.writeWire(p, s.wd); err != nil {
			return 0, err
		}
		s.opened = true
		return len(p), nil
	}
	s.wpending = append(s.wpending, p...)
	var out []byte
	for len(s.wpending) >= frame.HeaderLen {
		n, typ := frame.ParseHeader(s.wpending)
		if n > frame.MaxFrame {
			return 0, fmt.Errorf("pbs: mux stream %d: oversized frame (%d bytes)", s.id, n)
		}
		end := frame.HeaderLen + int(n)
		if len(s.wpending) < end {
			break
		}
		var flags uint64
		if !s.opened {
			flags |= frame.FlagOpen
			s.opened = true
		}
		if typ == frame.MsgDone || typ == frame.MsgStreamClose {
			flags |= frame.FlagClose
			s.closeSent = true
		}
		out = frame.Seal(out, s.id, flags, typ, s.wpending[frame.HeaderLen:end])
		s.wpending = s.wpending[end:]
	}
	if len(s.wpending) == 0 {
		s.wpending = nil // frame boundary: release the buffer
	}
	if len(out) > 0 {
		if err := s.m.writeWire(out, s.wd); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Close tears the stream down locally and, when the session didn't already
// say goodbye (msgDone carries the close flag), tells the peer with a bare
// msgStreamClose so the server frees the stream's session state promptly.
func (s *MuxStream) Close() error {
	s.closeOnce.Do(func() {
		s.wmu.Lock()
		needsWire := !s.raw() && s.opened && !s.closeSent
		s.closeSent = true
		s.wmu.Unlock()
		if needsWire && s.m.muxed() {
			// Best effort: the connection may already be gone.
			s.m.writeWire(frame.Seal(nil, s.id, frame.FlagClose, frame.MsgStreamClose, nil), time.Time{})
		}
		s.teardown(nil)
		s.m.removeStream(s.id)
	})
	return nil
}

func (s *MuxStream) LocalAddr() net.Addr  { return s.m.conn.LocalAddr() }
func (s *MuxStream) RemoteAddr() net.Addr { return s.m.conn.RemoteAddr() }

func (s *MuxStream) SetDeadline(t time.Time) error {
	s.SetReadDeadline(t)
	return s.SetWriteDeadline(t)
}

func (s *MuxStream) SetReadDeadline(t time.Time) error {
	s.rd.set(t)
	return nil
}

func (s *MuxStream) SetWriteDeadline(t time.Time) error {
	s.wmu.Lock()
	s.wd = t
	s.wmu.Unlock()
	return nil
}
