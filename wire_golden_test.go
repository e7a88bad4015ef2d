package pbs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/frame"
	"pbs/internal/workload"
)

var updateWireGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_golden.json from this build")

const wireGoldenPath = "testdata/wire_golden.json"

// wireRow is one pinned exchange as the wire carried it: the SHA-256 of
// every byte each side sent, the types of the frames each side sent (" | "
// separates connections), and the outcome — for a negotiation cell the
// negotiated protocol (v1, v2) or the failure each sync ended with,
// for an abuse row the code of the diagnostic the abuser got, for a
// decline row the refusal. A refusal is named by its code
// ("PeerError:rejected", or "PeerError:uncoded" when it has none).
type wireRow struct {
	Initiator       string `json:"initiator"`
	Responder       string `json:"responder"`
	InitiatorFrames string `json:"initiator_frames"`
	ResponderFrames string `json:"responder_frames"`
	Outcome         string `json:"outcome"`
}

// wireTap records one connection as its owner saw it: in is every byte
// read, out every byte written. closed fires when the owner closes it.
type wireTap struct {
	net.Conn
	mu        sync.Mutex
	in, out   []byte
	closed    chan struct{}
	closeOnce sync.Once
}

func newWireTap(c net.Conn) *wireTap { return &wireTap{Conn: c, closed: make(chan struct{})} }

func (c *wireTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *wireTap) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out = append(c.out, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// CloseWrite keeps the half-close a Server does before its final msgError.
func (c *wireTap) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

func (c *wireTap) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *wireTap) bytes() (in, out []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.in...), append([]byte(nil), c.out...)
}

// tapListener taps every connection it accepts, so a responder's side of
// the wire is recorded whatever serves it.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*wireTap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := newWireTap(c)
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *tapListener) taps() []*wireTap {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*wireTap(nil), l.conns...)
}

// wireSync is one sync's end: the failure it ended with, or the index of
// the accepted connection that carried it.
type wireSync struct {
	failure string
	conn    int
}

// row waits for the responder to close every connection it accepted — by
// then it has read all the initiator sent and its writes have returned —
// and hashes both directions, the responder's reads being the initiator's
// bytes.
func (l *tapListener) row(t *testing.T, syncs []wireSync) wireRow {
	t.Helper()
	var in, out []byte
	var inTypes, outTypes, protocols []string
	for _, c := range l.taps() {
		select {
		case <-c.closed:
		case <-time.After(10 * time.Second):
			t.Fatal("responder never closed its connection")
		}
		cin, cout := c.bytes()
		in, out = append(in, cin...), append(out, cout...)
		inTypes, outTypes = append(inTypes, wireFrameTypes(cin)), append(outTypes, wireFrameTypes(cout))
		protocols = append(protocols, wireProtocol(cout))
	}
	var outcomes []string
	for _, s := range syncs {
		if s.failure == "" {
			s.failure = protocols[s.conn]
		}
		outcomes = append(outcomes, s.failure)
	}
	return wireRow{
		Initiator:       wireSHA(in),
		Responder:       wireSHA(out),
		InitiatorFrames: strings.Join(inTypes, " | "),
		ResponderFrames: strings.Join(outTypes, " | "),
		Outcome:         strings.Join(outcomes, " "),
	}
}

func wireSHA(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// The retired protocol-0 types a v0-decline row opens with.
const (
	retiredMsgEstimate = 1
	retiredMsgHello    = 8
)

// wireFrameNames names the frame types a pinned stream carries; the two
// retired protocol-0 types appear only in the v0-decline openings.
var wireFrameNames = map[byte]string{
	retiredMsgEstimate:    "estimate",
	frame.MsgRound:        "round",
	frame.MsgRoundReply:   "round-reply",
	frame.MsgDone:         "done",
	retiredMsgHello:       "hello",
	frame.MsgError:        "error",
	frame.MsgHelloV1:      "hello-v1",
	frame.MsgHelloReplyV1: "hello-reply-v1",
	frame.MsgStreamClose:  "stream-close",
}

// wireFrameTypes names the type of every frame in a recorded stream. Mux
// envelopes keep the outer header, so enveloped frames read the same way.
func wireFrameTypes(b []byte) string {
	var names []string
	for len(b) >= frame.HeaderLen {
		n, typ := frame.ParseHeader(b)
		name, ok := wireFrameNames[typ]
		if !ok {
			name = fmt.Sprintf("type-%d", typ)
		}
		names = append(names, name)
		if end := frame.HeaderLen + int(n); end <= len(b) {
			b = b[end:]
		} else {
			names = append(names, "(truncated)")
			break
		}
	}
	return strings.Join(names, " ")
}

// wireProtocol reads the protocol a connection negotiated off the first
// frame its responder sent.
func wireProtocol(out []byte) string {
	if len(out) < frame.HeaderLen {
		return "silent"
	}
	n, typ := frame.ParseHeader(out)
	end := frame.HeaderLen + int(n)
	if typ != frame.MsgHelloReplyV1 || end > len(out) {
		return "unknown"
	}
	rep, err := frame.ParseHelloReply(out[frame.HeaderLen:end])
	switch {
	case err != nil:
		return "unknown"
	case rep.Features&frame.FeatureMux != 0:
		return "v2"
	}
	return "v1"
}

// wireFailure names how a failed sync ended: ErrMuxDeclined, or the peer's
// refusal. Any other failure fails the test.
func wireFailure(t *testing.T, err error) string {
	t.Helper()
	var pe *PeerError
	switch {
	case errors.Is(err, ErrMuxDeclined):
		return "ErrMuxDeclined"
	case errors.As(err, &pe):
		return wireRefusal(pe)
	}
	t.Fatalf("sync failed outside the negotiation: %v", err)
	return ""
}

// wireRefusal names a peer's msgError refusal by its diagnostic code.
func wireRefusal(pe *PeerError) string {
	if pe.Code == "" {
		return "PeerError:uncoded"
	}
	return "PeerError:" + pe.Code
}

// The negotiation matrix. Initiators: Set.Sync's single-RTT hello, a
// MuxConn stream (version 2), and a one-shot client (dialSync: a fresh Set
// and connection per sync).
// Responders: a protocol-0-only peer, Set.Respond, a Server with mux
// disabled, and a full Server.
var (
	wireInitiators = []string{"fast", "mux", "client"}
	wireResponders = []string{"v0", "respond", "server-nomux", "server"}
)

// serveV0 is a protocol-0 peer as the hello meets it: a build that
// predates the fast path answers the opening frame, a type it has no case
// for, with msgError and closes the connection.
func serveV0(conn net.Conn) {
	defer conn.Close()
	typ, _, err := frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		return
	}
	frame.WriteAll(conn, []frame.Frame{{Type: frame.MsgError, Payload: fmt.Appendf(nil, "pbs: unexpected message type %d", typ)}})
}

// startWireResponder serves base under opt behind a tapped loopback
// listener and tears it down with the test.
func startWireResponder(t *testing.T, kind string, base []uint64, opt Options) *tapListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &tapListener{Listener: ln}
	acceptEach := func(serve func(net.Conn)) {
		for {
			c, err := tl.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}
	switch kind {
	case "v0":
		go acceptEach(serveV0)
		t.Cleanup(func() { tl.Close() })
	case "respond":
		set, err := NewSet(base, WithOptions(opt))
		if err != nil {
			t.Fatal(err)
		}
		go acceptEach(func(c net.Conn) {
			defer c.Close()
			for set.Respond(context.Background(), c) == nil {
			}
		})
		t.Cleanup(func() { tl.Close() })
	case "server-nomux", "server":
		so := ServerOptions{Protocol: &opt}
		if kind == "server-nomux" {
			so.MaxStreams = -1
		}
		srv := NewServer(so)
		if err := srv.Register(DefaultSetName, base); err != nil {
			t.Fatal(err)
		}
		go srv.Serve(tl)
		t.Cleanup(func() { srv.Close() })
	default:
		t.Fatalf("unknown responder %q", kind)
	}
	return tl
}

// runWireCell runs one cell: a cold then a warm sync from one fresh Set
// handle (so the second pins the prior-sized speculation), stopping at the
// first sync that fails. The one-shot client builds its Set per sync, so
// both of its syncs are cold.
func runWireCell(t *testing.T, initiator, responder string, adaptive, strong bool, p *workload.Pair) wireRow {
	opt := Options{Seed: 3102, StrongVerify: strong}
	tl := startWireResponder(t, responder, p.B, opt)
	addr := tl.Addr().String()
	ctx := context.Background()
	var syncs []wireSync
	// record books one sync's end and reports whether the cell goes on. A
	// sync that completed ran on the newest connection the responder took.
	record := func(res *Result, err error) bool {
		t.Helper()
		if err != nil {
			syncs = append(syncs, wireSync{failure: wireFailure(t, err)})
			return false
		}
		if !res.Complete {
			t.Fatalf("incomplete after %d rounds", res.Rounds)
		}
		assertSameSet(t, res.Difference, p.Diff)
		syncs = append(syncs, wireSync{conn: len(tl.taps()) - 1})
		return true
	}

	if initiator == "client" {
		for i := 0; i < 2; i++ {
			if !record(dialSync(addr, "", &opt, p.A)) {
				break
			}
		}
		return tl.row(t, syncs)
	}
	set, err := NewSet(p.A, WithOptions(opt), WithAdaptive(adaptive))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	switch initiator {
	case "fast":
		for i := 0; i < 2; i++ {
			if !record(set.Sync(ctx, conn)) {
				break
			}
		}
		conn.Close()
	case "mux":
		mc := NewMuxConn(conn)
		for i := 0; i < 2; i++ {
			st, err := mc.Stream()
			if err != nil {
				record(nil, err)
				break
			}
			res, err := set.Sync(ctx, st)
			st.Close()
			if !record(res, err) {
				break
			}
		}
		mc.Close()
	default:
		t.Fatalf("unknown initiator %q", initiator)
	}
	return tl.row(t, syncs)
}

// pipeRow pins one Set.Sync against Set.Respond over a net.Pipe, tapped on
// the initiator's end: what it wrote, and the responder's bytes it read.
func pipeRow(t *testing.T, p *workload.Pair, opt Options) wireRow {
	t.Helper()
	a, err := NewSet(p.A, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSet(p.B, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	tap := newWireTap(ca)
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- b.Respond(context.Background(), cb)
	}()
	res, err := a.Sync(context.Background(), tap)
	ca.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-respErr; err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	in, out := tap.bytes()
	return wireRow{
		Initiator:       wireSHA(out),
		Responder:       wireSHA(in),
		InitiatorFrames: wireFrameTypes(out),
		ResponderFrames: wireFrameTypes(in),
		Outcome:         wireProtocol(in),
	}
}

// declineRow sends responder a hand-written protocol-0 opening — a bare
// msgHello naming the default set, then msgEstimate with the initiator's
// sketches — and pins the refusal: the bytes each side put on the wire
// (the responder's reads being the initiator's bytes it consumed) and the
// code of the msgError it answered with.
func declineRow(t *testing.T, responder string, p *workload.Pair) wireRow {
	opt := Options{Seed: 3102}
	tl := startWireResponder(t, responder, p.B, opt)
	ss, err := newSharedSet(p.A, &opt)
	if err != nil {
		t.Fatal(err)
	}
	conn := dialLoopTest(t, tl.Addr().String())
	opening := []frame.Frame{
		{Type: retiredMsgHello, Payload: []byte(DefaultSetName)},
		{Type: retiredMsgEstimate, Payload: frame.EncodeSketches(ss.meta.sketch)},
	}
	if _, err := frame.WriteAll(conn, opening); err != nil {
		t.Fatal(err)
	}
	// The refusal is all the responder sends before it hangs up.
	io.Copy(io.Discard, conn)
	conn.Close()
	row := tl.row(t, nil)
	_, out := tl.taps()[0].bytes()
	typ, body, err := frame.ReadInto(bytes.NewReader(out), frame.MaxFrame, nil)
	if err != nil || typ != frame.MsgError {
		t.Fatalf("protocol-0 opening answered with type %d (%v), want msgError", typ, err)
	}
	row.Outcome = wireRefusal(parsePeerErrPayload(body))
	return row
}

// lzDeclineRow pins a raw version-2 hello that still offers the retired
// FeatureLZ beside FeatureMux: the server grants mux alone, and the
// negotiating session completes under the plain envelope.
func lzDeclineRow(t *testing.T, p *workload.Pair) wireRow {
	opt := Options{Seed: 3102}
	tl := startWireResponder(t, "server", p.B, opt)
	conn := dialLoopTest(t, tl.Addr().String())
	if got := muxRawNegotiate(t, conn, p.A, &opt, frame.FeatureMux|frame.FeatureLZ); got != frame.FeatureMux {
		t.Fatalf("a mux|lz offer was granted %#x, want mux alone", got)
	}
	conn.Close()
	return tl.row(t, []wireSync{{conn: 0}})
}

// loopRow runs one TestConnLoopParity abuse script the way that test does —
// a healthy sibling sync in flight, on a second raw connection or on stream
// 3 beside the abuser's stream 5 — and pins the abuser's connection as the
// client saw it: every byte it sent, and every server byte it read, which
// for a script that hangs up is what the server wrote before the hang-up.
func loopRow(t *testing.T, sc loopScript, muxed bool) wireRow {
	base := testBaseSet(2000)
	opt := &Options{Seed: 9701}
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
	tap := newWireTap(dialLoopTest(t, addr))
	abuser := &loopPeer{t: t, conn: tap}
	sibPeer := &loopPeer{t: t}
	if muxed {
		negLocal, _ := clientSetAndDiff(base, 0)
		muxRawNegotiate(t, tap, negLocal, opt, frame.FeatureMux)
		waitForCompleted(t, srv, 1)
		abuser.id, sibPeer.conn, sibPeer.id = 5, tap, 3
	} else {
		sibPeer.conn = dialLoopTest(t, addr)
	}
	sib := startLoopSibling(sibPeer, sibLocal, opt, sibSet)
	outcome := "ok"
	if pe := sc.run(abuser, local, opt); pe != nil {
		outcome = pe.Code
	}
	sib.finish()
	tap.Close()
	in, out := tap.bytes()
	return wireRow{
		Initiator:       wireSHA(out),
		Responder:       wireSHA(in),
		InitiatorFrames: wireFrameTypes(out),
		ResponderFrames: wireFrameTypes(in),
		Outcome:         outcome,
	}
}

// TestWireGolden pins the absolute bytes of the negotiated wire protocol:
// the §6 estimate, the §2 rounds, the §2.2.3 verification and the §3.2
// splits as every pairing of initiator and responder generation puts them
// on the wire, plus the fixture of the fast-path equivalence suite, the
// refusal each current responder gives a protocol-0 opening, the mux-only
// grant a server gives a hello that still offers lz, and the
// server's side of every connection-loop abuse script. The equivalence
// suite compares two paths of one build, so a change that moved both would
// pass it; it cannot pass this. The file is regenerated
// with `go test . -run TestWireGolden -update-golden`, which is only ever
// right in a change that means to alter the wire.
func TestWireGolden(t *testing.T) {
	got := make(map[string]wireRow)
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 1000, D: 24, Seed: 3101})
	for _, initiator := range wireInitiators {
		for _, responder := range wireResponders {
			for _, strong := range []bool{false, true} {
				for _, adaptive := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/adaptive=%v/strong=%v", initiator, responder, adaptive, strong)
					if initiator == "client" {
						// The one-shot client has no adaptive switch: its Set
						// runs the default.
						if !adaptive {
							continue
						}
						name = fmt.Sprintf("%s/%s/strong=%v", initiator, responder, strong)
					}
					t.Run(name, func(t *testing.T) {
						got[name] = runWireCell(t, initiator, responder, adaptive, strong, p)
					})
				}
			}
		}
	}
	for _, strong := range []bool{false, true} {
		// The fixture of TestFastSyncWireEquivalence: a sync speculating at
		// KnownD.
		name := fmt.Sprintf("fast-equivalence/strong=%v", strong)
		t.Run(name, func(t *testing.T) {
			p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 80, Seed: 63})
			got[name] = pipeRow(t, p, Options{Seed: 64, StrongVerify: strong, KnownD: 80})
		})
	}
	for _, responder := range wireResponders[1:] {
		name := "v0-decline/" + responder
		t.Run(name, func(t *testing.T) { got[name] = declineRow(t, responder, p) })
	}
	t.Run("lz-decline/server", func(t *testing.T) { got["lz-decline/server"] = lzDeclineRow(t, p) })
	for _, sc := range loopScripts {
		for _, muxed := range []bool{false, true} {
			name := fmt.Sprintf("connloop/%s/mux=%v", sc.name, muxed)
			t.Run(name, func(t *testing.T) { got[name] = loopRow(t, sc, muxed) })
		}
	}
	if t.Failed() {
		return
	}

	if *updateWireGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]wireRow)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d rows, the test runs %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s", name, wireGoldenPath)
			continue
		}
		if g != w {
			t.Errorf("%s: wire differs from %s\n got %+v\nwant %+v", name, wireGoldenPath, g, w)
		}
	}
}
