package pbs

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pbs/internal/frame"
)

// dialLoopTest dials the test server on a deadline, so a diagnostic that
// never comes fails the test instead of hanging it.
func dialLoopTest(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// loopPeer speaks the session protocol by hand under either framing, so one
// abuse script can run unchanged on a raw connection (id 0) and on a mux
// stream (any other id) of an already-negotiated connection.
type loopPeer struct {
	t      *testing.T
	conn   net.Conn
	id     uint64
	opened bool
}

func (p *loopPeer) send(frames ...frame.Frame) {
	p.t.Helper()
	var err error
	if p.id == 0 {
		_, err = frame.WriteAll(p.conn, frames)
	} else {
		_, err = p.conn.Write(muxEnvelopeFrames(nil, p.id, !p.opened, frames))
	}
	p.opened = true
	if err != nil {
		p.t.Fatalf("write: %v", err)
	}
}

func (p *loopPeer) recv() (byte, []byte) {
	p.t.Helper()
	if p.id != 0 {
		return readMuxFrame(p.t, p.conn, p.id)
	}
	typ, payload, err := frame.ReadInto(p.conn, frame.MaxFrame, nil)
	if err != nil {
		p.t.Fatalf("read: %v", err)
	}
	return typ, payload
}

// recvError reads the next frame, which must be the session's msgError.
func (p *loopPeer) recvError() *PeerError {
	p.t.Helper()
	typ, body := p.recv()
	if typ != frame.MsgError {
		p.t.Fatalf("got frame type %d, want msgError", typ)
	}
	return parsePeerErrPayload(body)
}

// hangUp abandons the session the way each framing's client does: a raw
// client drops the connection, a mux client sends a bare msgStreamClose.
func (p *loopPeer) hangUp() {
	if p.id == 0 {
		p.conn.Close()
		return
	}
	p.send(frame.Frame{Type: frame.MsgStreamClose})
}

// loopSibling is a healthy fast sync split in two, so an abuse script can
// run while it is in flight: start leaves it admitted with its next frames
// (at the latest, its msgDone) unsent.
type loopSibling struct {
	peer *loopPeer
	is   *initiatorSession
	out  []frame.Frame
	done bool
}

func startLoopSibling(p *loopPeer, local []uint64, opt *Options, set string) *loopSibling {
	p.t.Helper()
	ss, err := newSharedSet(local, opt)
	if err != nil {
		p.t.Fatal(err)
	}
	is, opening, err := ss.newInitiator(ss.opt, initiatorCall{name: set, specD: 32, adaptive: true})
	if err != nil {
		p.t.Fatal(err)
	}
	p.send(opening...)
	sib := &loopSibling{peer: p, is: is}
	sib.step()
	return sib
}

func (s *loopSibling) step() {
	s.peer.t.Helper()
	typ, body := s.peer.recv()
	var err error
	if s.out, s.done, err = s.is.step(typ, body); err != nil {
		s.peer.t.Fatalf("sibling sync: %v", err)
	}
}

func (s *loopSibling) finish() {
	s.peer.t.Helper()
	for {
		s.peer.send(s.out...)
		if s.done {
			break
		}
		s.step()
	}
	if res := s.is.res; res == nil || !res.Complete {
		s.peer.t.Fatal("sibling sync disturbed: incomplete")
	}
}

// loopCounters are the ServerStats fields a session's fate lands in.
type loopCounters struct{ Completed, Failed, Rejected, Shed, QuotaRejections int64 }

func countersOf(st ServerStats) loopCounters {
	return loopCounters{st.Completed, st.Failed, st.Rejected, st.Shed, st.QuotaRejections}
}

func (c loopCounters) minus(o loopCounters) loopCounters {
	return loopCounters{c.Completed - o.Completed, c.Failed - o.Failed, c.Rejected - o.Rejected,
		c.Shed - o.Shed, c.QuotaRejections - o.QuotaRejections}
}

// loopScript is one row of TestConnLoopParity: server options, the abuse,
// and what it must produce under both framings.
type loopScript struct {
	name string
	// server returns the options to serve under; local is the abusing
	// client's set, for rows whose limits depend on its frame sizes.
	server func(t *testing.T, base, local []uint64, opt *Options) ServerOptions
	quota  bool // sync against loopQuotaSet, whose tenant's one session slot the sibling pins
	run    func(p *loopPeer, local []uint64, opt *Options) *PeerError

	wantMsg   string // substring of the diagnostic; "" = no msgError expected
	wantCode  string
	wantRetry bool
	want      loopCounters // the abused session alone, sibling excluded
}

// loopSpecD is the speculation of an abuser's hello: the abuser's
// difference from the base dwarfs it, so the server declines it and the
// session goes on in msgRound frames.
const loopSpecD = 4

// openHello runs the hello exchange and returns the frames the initiator
// would send next: its first msgRound.
func openHello(p *loopPeer, local []uint64, opt *Options) []frame.Frame {
	p.t.Helper()
	is, opening := helloInitiator(p.t, local, opt, "", loopSpecD)
	p.send(opening...)
	typ, body := p.recv()
	out, _, err := is.step(typ, body)
	if err != nil {
		p.t.Fatal(err)
	}
	if len(out) != 1 || out[0].Type != frame.MsgRound {
		p.t.Fatalf("expected one round frame, got %+v", frameTypes(out))
	}
	return out
}

const (
	loopQuotaTenant = "t"
	loopQuotaSet    = loopQuotaTenant + "/s"
)

var loopScripts = []loopScript{
	{
		name: "byte-budget-crossed-by-reply",
		// The budget admits the hello exchange and the inbound round under
		// either framing (mux pays 2 envelope bytes on each of the three
		// frames) and is crossed by the round reply.
		server: func(t *testing.T, base, local []uint64, opt *Options) ServerOptions {
			is, hello := helloInitiator(t, local, opt, "", loopSpecD)
			bss, err := newSharedSet(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			reply, _, err := bss.newServerSession().step(hello[0].Type, hello[0].Payload)
			if err != nil {
				t.Fatal(err)
			}
			round, _, err := is.step(reply[0].Type, reply[0].Payload)
			if err != nil {
				t.Fatal(err)
			}
			spent := 3*(5+2) + len(hello[0].Payload) + len(reply[0].Payload) + len(round[0].Payload)
			return ServerOptions{Protocol: opt, SessionByteBudget: int64(spent)}
		},
		run: func(p *loopPeer, local []uint64, opt *Options) *PeerError {
			round := openHello(p, local, opt)
			p.send(round...)
			if typ, _ := p.recv(); typ != frame.MsgRoundReply {
				p.t.Fatalf("got frame type %d, want the round reply that crosses the budget", typ)
			}
			return p.recvError()
		},
		wantMsg: "session byte budget exceeded", wantCode: ErrCodeRejected,
		want: loopCounters{Failed: 1},
	},
	{
		name: "round-budget-replayed-round",
		// The hello carries a speculative round, so it spends the first of
		// two; the first msgRound spends the second and its replay is over.
		server: func(_ *testing.T, _, _ []uint64, opt *Options) ServerOptions {
			return ServerOptions{Protocol: opt, SessionMaxRounds: 2}
		},
		run: func(p *loopPeer, local []uint64, opt *Options) *PeerError {
			round := openHello(p, local, opt)
			p.send(round...)
			if typ, _ := p.recv(); typ != frame.MsgRoundReply {
				p.t.Fatalf("got frame type %d, want msgRoundReply", typ)
			}
			p.send(round...)
			return p.recvError()
		},
		wantMsg: "session round budget exceeded", wantCode: ErrCodeRejected,
		want: loopCounters{Failed: 1},
	},
	{
		name: "hello-after-open",
		// A second hello on a stream whose session is open: it must fail
		// that session, not re-open or be swallowed.
		run: func(p *loopPeer, local []uint64, opt *Options) *PeerError {
			_, hello := helloInitiator(p.t, local, opt, "", loopSpecD)
			p.send(hello...)
			if typ, _ := p.recv(); typ != frame.MsgHelloReplyV1 {
				p.t.Fatalf("got frame type %d, want msgHelloReplyV1", typ)
			}
			p.send(hello...)
			return p.recvError()
		},
		wantMsg: "duplicate estimate", wantCode: ErrCodeRejected,
		want: loopCounters{Failed: 1},
	},
	{
		name: "bare-done-probe",
		run: func(p *loopPeer, _ []uint64, _ *Options) *PeerError {
			p.send(frame.Frame{Type: frame.MsgDone})
			return nil
		},
	},
	{
		name: "unknown-frame-type",
		run: func(p *loopPeer, _ []uint64, _ *Options) *PeerError {
			p.send(frame.Frame{Type: 0x7F, Payload: []byte{1, 2, 3}})
			return p.recvError()
		},
		wantMsg: "unexpected message type 127", wantCode: ErrCodeRejected,
		want: loopCounters{Failed: 1},
	},
	{
		name: "unknown-set",
		run: func(p *loopPeer, local []uint64, opt *Options) *PeerError {
			_, hello := helloInitiator(p.t, local, opt, "nope", loopSpecD)
			p.send(hello...)
			return p.recvError()
		},
		wantMsg: `unknown set "nope"`, wantCode: ErrCodeRejected,
		want: loopCounters{Failed: 1},
	},
	{
		name:  "tenant-session-quota",
		quota: true,
		run: func(p *loopPeer, local []uint64, opt *Options) *PeerError {
			_, hello := helloInitiator(p.t, local, opt, loopQuotaSet, loopSpecD)
			p.send(hello...)
			return p.recvError()
		},
		wantMsg: "quota", wantCode: ErrCodeQuota, wantRetry: true,
		want: loopCounters{Rejected: 1, QuotaRejections: 1},
	},
	{
		name: "mid-session-disconnect",
		run: func(p *loopPeer, local []uint64, opt *Options) *PeerError {
			openHello(p, local, opt)
			p.hangUp()
			return nil
		},
		want: loopCounters{Failed: 1},
	},
}

// runLoopScript runs sc once — on a raw connection, or on stream 5 of a
// negotiated mux connection — with a healthy sibling sync in flight (on a
// second raw connection, or on stream 3), and returns the diagnostic the
// abuser got plus the counter deltas of abuser and sibling together.
func runLoopScript(t *testing.T, sc loopScript, muxed bool) (*PeerError, loopCounters) {
	base := testBaseSet(2000)
	opt := &Options{Seed: 9701}
	// The abuser differs from the base by enough that its round reply is
	// hundreds of bytes — room for the byte-budget row to land on it.
	local := append([]uint64(nil), base[300:]...)
	sibLocal, _ := clientSetAndDiff(base, 1)

	srvOpt := ServerOptions{Protocol: opt}
	if sc.server != nil {
		srvOpt = sc.server(t, base, local, opt)
	}
	srv, addr := startTestServer(t, base, srvOpt)
	sibSet := ""
	if sc.quota {
		sibSet = loopQuotaSet
		srv.SetTenantQuota(loopQuotaTenant, TenantQuota{MaxSessions: 1})
		if err := srv.Register(loopQuotaSet, base); err != nil {
			t.Fatal(err)
		}
	}

	abuser := &loopPeer{t: t, conn: dialLoopTest(t, addr)}
	sibPeer := &loopPeer{t: t}
	if muxed {
		negLocal, _ := clientSetAndDiff(base, 0)
		muxRawNegotiate(t, abuser.conn, negLocal, opt, frame.FeatureMux)
		waitForCompleted(t, srv, 1)
		abuser.id, sibPeer.conn, sibPeer.id = 5, abuser.conn, 3
	} else {
		sibPeer.conn = dialLoopTest(t, addr)
	}
	before := countersOf(srv.Stats())

	sib := startLoopSibling(sibPeer, sibLocal, opt, sibSet)
	pe := sc.run(abuser, local, opt)
	sib.finish()
	// Nothing is left unread on the client side, so the closes are clean
	// FINs: the server consumes every frame already sent before it sees
	// them, and its counters are final once the connection loops exit.
	abuser.conn.Close()
	sibPeer.conn.Close()
	waitFor(t, func() bool { return srv.connCount.Load() == 0 })

	st := srv.Stats()
	if st.Active != 0 || st.StreamsOpen != 0 {
		t.Errorf("after the run: Active = %d, StreamsOpen = %d, want 0 and 0", st.Active, st.StreamsOpen)
	}
	for _, tenant := range []string{"", loopQuotaTenant} {
		if _, _, sessions := srv.TenantUsage(tenant); sessions != 0 {
			t.Errorf("after the run: tenant %q still holds %d sessions", tenant, sessions)
		}
	}
	return pe, countersOf(st).minus(before)
}

// TestConnLoopParity pins that the connection loop limits and accounts a
// session identically whichever framing carries it: each abuse script runs
// once on a raw connection and once on a non-negotiator mux stream, a
// healthy sibling sync in flight both times, and must produce the same
// diagnostic, code and retry hint and the same ServerStats deltas, with
// every session slot returned.
func TestConnLoopParity(t *testing.T) {
	for _, sc := range loopScripts {
		t.Run(sc.name, func(t *testing.T) {
			rawErr, rawDelta := runLoopScript(t, sc, false)
			muxErr, muxDelta := runLoopScript(t, sc, true)

			want := sc.want
			want.Completed++ // the sibling
			if rawDelta != want || muxDelta != want {
				t.Errorf("counter deltas: raw %+v, mux %+v, want %+v", rawDelta, muxDelta, want)
			}
			if sc.wantMsg == "" {
				if rawErr != nil || muxErr != nil {
					t.Fatalf("unexpected diagnostics: raw %v, mux %v", rawErr, muxErr)
				}
				return
			}
			if *rawErr != *muxErr {
				t.Errorf("diagnostics differ: raw %+v, mux %+v", *rawErr, *muxErr)
			}
			if !strings.Contains(rawErr.Msg, sc.wantMsg) || rawErr.Code != sc.wantCode || (rawErr.RetryAfter > 0) != sc.wantRetry {
				t.Errorf("diagnostic %+v, want %q coded %q (retry hint: %v)", *rawErr, sc.wantMsg, sc.wantCode, sc.wantRetry)
			}
		})
	}
}

// TestConnLoopMuxHandoff pins what the raw→mux switch carries over: the
// negotiating stream keeps the rounds and bytes it was charged under raw
// framing, so an undersized version-2 hello (its speculative round is
// charged, then declined) leaves stream 1 over a one-round budget on its
// first enveloped msgRound, and a byte budget sized to the hello exchange
// is crossed by that same frame.
func TestConnLoopMuxHandoff(t *testing.T) {
	base := testBaseSet(2000)
	opt := &Options{Seed: 9703}
	local := append([]uint64(nil), base[400:]...)
	ss, err := newSharedSet(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	hello := func() (*initiatorSession, []frame.Frame) {
		is, opening, err := ss.newInitiator(ss.opt, initiatorCall{specD: 4, features: frame.FeatureMux, adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		return is, opening
	}
	// The hello exchange's size, from the responder the server will run.
	_, opening := hello()
	bss, err := newSharedSet(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs := bss.newServerSession()
	rs.allowFeatures = frame.FeatureMux
	reply, _, err := rs.step(opening[0].Type, opening[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	exchange := int64(5 + len(opening[0].Payload) + 5 + len(reply[0].Payload))

	for _, tc := range []struct {
		name    string
		srvOpt  ServerOptions
		wantMsg string
		resync  bool // a fresh stream must still sync afterwards
	}{
		{"round-budget", ServerOptions{Protocol: opt, SessionMaxRounds: 1}, "session round budget exceeded", true},
		{"byte-budget", ServerOptions{Protocol: opt, SessionByteBudget: exchange + 4}, "session byte budget exceeded", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startTestServer(t, base, tc.srvOpt)
			conn := dialLoopTest(t, addr)
			is, opening := hello()
			if _, err := frame.WriteAll(conn, opening); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, reply[0].Payload) {
				t.Fatal("server's hello reply differs from the in-process responder's")
			}
			out, _, err := is.step(typ, payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 1 || out[0].Type != frame.MsgRound {
				t.Fatalf("undersized hello should be followed by a round, got %+v", frameTypes(out))
			}
			if _, err := conn.Write(muxEnvelopeFrames(nil, 1, false, out)); err != nil {
				t.Fatal(err)
			}
			typ, body := readMuxFrame(t, conn, 1)
			if typ != frame.MsgError {
				t.Fatalf("stream 1's first enveloped round answered with type %d, want msgError", typ)
			}
			if pe := parsePeerErrPayload(body); pe.Code != ErrCodeRejected || !strings.Contains(pe.Msg, tc.wantMsg) {
				t.Fatalf("peer error %q coded %q, want rejected %q", pe.Msg, pe.Code, tc.wantMsg)
			}
			// Per-stream failure: the connection outlives it.
			if tc.resync {
				small, _ := clientSetAndDiff(base, 2)
				muxRawSync(t, conn, 3, small, opt)
				waitForCompleted(t, srv, 1)
			}
			waitFor(t, func() bool {
				st := srv.Stats()
				return st.Failed == 1 && st.Active == 0 && st.StreamsOpen == 0
			})
		})
	}
}

// failingConn feeds handle a scripted inbound byte stream and fails every
// Write after the first okWrites.
type failingConn struct {
	net.Conn // nil: only the methods below may be reached
	in       *bytes.Reader
	okWrites int
	writes   int
}

func (c *failingConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *failingConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes > c.okWrites {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}
func (c *failingConn) Close() error                     { return nil }
func (c *failingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *failingConn) SetWriteDeadline(time.Time) error { return nil }

// TestConnLoopFailedWriteEndsConnection pins the shared handling of a
// reply that cannot be written: under either framing the connection ends
// there — no diagnostic is pushed after it onto the broken socket — and
// every stream it carried counts Failed.
func TestConnLoopFailedWriteEndsConnection(t *testing.T) {
	base := testBaseSet(500)
	opt := &Options{Seed: 9705}
	local, _ := clientSetAndDiff(base, 1)
	_, open := helloInitiator(t, local, opt, "", 32)
	ss, err := newSharedSet(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, negotiate, err := ss.newInitiator(ss.opt, initiatorCall{specD: 32, features: frame.FeatureMux, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}

	rawIn := frame.Append(nil, open[0].Type, open[0].Payload)
	// Mux: the granted hello's reply is written, then stream 3 opens with
	// a hello whose reply is not — with stream 1 still mid-session.
	muxIn := frame.Append(nil, negotiate[0].Type, negotiate[0].Payload)
	muxIn = muxEnvelopeFrames(muxIn, 3, true, open)

	for _, tc := range []struct {
		name       string
		in         []byte
		okWrites   int
		wantFailed int64
	}{
		{"raw", rawIn, 0, 1},
		{"mux", muxIn, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(ServerOptions{Protocol: opt})
			if err := srv.Register(DefaultSetName, base); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := &failingConn{in: bytes.NewReader(tc.in), okWrites: tc.okWrites}
			srv.handle(conn)
			if conn.writes != tc.okWrites+1 {
				t.Errorf("%d writes attempted, want %d: nothing may follow the failed one", conn.writes, tc.okWrites+1)
			}
			st := srv.Stats()
			if st.Failed != tc.wantFailed || st.Active != 0 || st.StreamsOpen != 0 {
				t.Errorf("Failed = %d, Active = %d, StreamsOpen = %d, want %d, 0, 0", st.Failed, st.Active, st.StreamsOpen, tc.wantFailed)
			}
		})
	}
}

// TestConnLoopRefusesOversizedFrameUnread pins the budget check a raw
// session makes before it reads a frame: a header whose declared length
// alone exceeds what remains of the byte budget is refused on the spot,
// with no payload ever sent. A server that waited for the payload would
// sit out the idle timeout and end the connection without a diagnostic.
func TestConnLoopRefusesOversizedFrameUnread(t *testing.T) {
	const idle = 10 * time.Second
	srv, addr := startTestServer(t, testBaseSet(200), ServerOptions{
		Protocol:          &Options{Seed: 9707},
		SessionByteBudget: 1024,
		IdleTimeout:       idle,
	})
	conn := dialLoopTest(t, addr)
	var hdr [frame.HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], 4096)
	hdr[4] = frame.MsgHelloV1
	start := time.Now()
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(idle / 4))
	pe := (&loopPeer{t: t, conn: conn}).recvError()
	if pe.Msg != "session byte budget exceeded" || pe.Code != ErrCodeRejected {
		t.Fatalf("refusal %+v, want the byte budget coded %q", *pe, ErrCodeRejected)
	}
	if elapsed := time.Since(start); elapsed >= idle/4 {
		t.Fatalf("refusal took %v against a %v idle timeout: the server waited for the payload", elapsed, idle)
	}
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.Failed == 1 && st.Active == 0
	})
}
