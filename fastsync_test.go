package pbs

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"pbs/internal/frame"
	"pbs/internal/workload"
)

// parseStream splits a recorded wire stream back into frames.
func parseStream(t *testing.T, b []byte) []frame.Frame {
	t.Helper()
	var frames []frame.Frame
	r := bytes.NewReader(b)
	for r.Len() > 0 {
		typ, payload, err := frame.ReadInto(r, frame.MaxFrame, nil)
		if err != nil {
			t.Fatalf("corrupt recorded stream: %v", err)
		}
		frames = append(frames, frame.Frame{Type: typ, Payload: append([]byte(nil), payload...)})
	}
	return frames
}

func frameTypes(frames []frame.Frame) []byte {
	types := make([]byte, len(frames))
	for i, f := range frames {
		types[i] = f.Type
	}
	return types
}

// driveEngine steps an initiator and a responder session against each
// other to completion, the closing frames delivered too, and returns both
// recorded frame streams.
func driveEngine(t *testing.T, is *initiatorSession, opening []frame.Frame, rs *responderSession) (iStream, rStream []byte) {
	t.Helper()
	toResponder := opening
	done := false
	for !done {
		iStream = append(iStream, frameBytes(toResponder)...)
		var toInitiator []frame.Frame
		for _, f := range toResponder {
			out, _, err := rs.step(f.Type, f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			toInitiator = append(toInitiator, out...)
		}
		rStream = append(rStream, frameBytes(toInitiator)...)
		toResponder = nil
		for _, f := range toInitiator {
			out, d, err := is.step(f.Type, f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			toResponder = append(toResponder, out...)
			done = d
		}
		if done {
			iStream = append(iStream, frameBytes(toResponder)...)
			for _, f := range toResponder {
				if _, _, err := rs.step(f.Type, f.Payload); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return iStream, rStream
}

// TestFastSyncSingleRoundTrip is the tentpole assertion: a warm sync whose
// speculation holds completes in one round trip — the initiator puts
// exactly msgHelloV1 and msgDone on the wire and the responder exactly one
// msgHelloReplyV1 — including under StrongVerify, whose digest rides the
// reply instead of costing a msgVerify exchange.
func TestFastSyncSingleRoundTrip(t *testing.T) {
	for _, strong := range []bool{false, true} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 61})
		// The speculation carries headroom over the true difference — the
		// shape Set.speculativeD produces from a prior — so round 1
		// decodes everything and the exchange is one round trip.
		opt := Options{Seed: 62, StrongVerify: strong, KnownD: 40}
		res, sent, received := teeSync(t, mustSet(t, p.A, WithOptions(opt)), mustSet(t, p.B, WithOptions(opt)))
		if !res.Complete {
			t.Fatalf("strong=%v: incomplete after %d rounds", strong, res.Rounds)
		}
		assertSameSet(t, res.Difference, p.Diff)

		iFrames := parseStream(t, sent)
		rFrames := parseStream(t, received)
		if it := frameTypes(iFrames); len(it) != 2 || it[0] != frame.MsgHelloV1 || it[1] != frame.MsgDone {
			t.Fatalf("strong=%v: initiator sent frame types %v, want [%d %d] (1 RTT)",
				strong, it, frame.MsgHelloV1, frame.MsgDone)
		}
		if rt := frameTypes(rFrames); len(rt) != 1 || rt[0] != frame.MsgHelloReplyV1 {
			t.Fatalf("strong=%v: responder sent frame types %v, want [%d] (1 RTT)",
				strong, rt, frame.MsgHelloReplyV1)
		}
		rep, err := frame.ParseHelloReply(rFrames[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Answered {
			t.Fatalf("strong=%v: responder declined a correctly sized speculation", strong)
		}
		if strong && rep.Digest == nil {
			t.Fatalf("requested verification digest missing from hello reply")
		}
		if res.Rounds != 1 {
			t.Fatalf("strong=%v: %d rounds, want 1", strong, res.Rounds)
		}
	}
}

// TestFastSyncWireEquivalence drives the same reconciliation two ways — by
// stepping initiatorSession/responderSession directly, and through the Set
// API (Set.Sync against Set.Respond over a pipe, with a WithOnDelta
// observer installed) — and requires byte-identical streams in both
// directions plus identical results. This is the engine's contract: the
// engine IS the protocol, every surface only moves frames, and the
// streaming-delta observer never perturbs the wire. TestWireGolden holds
// the same fixture to its absolute bytes.
func TestFastSyncWireEquivalence(t *testing.T) {
	for _, strong := range []bool{false, true} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 80, Seed: 63})
		opt := &Options{Seed: 64, StrongVerify: strong, KnownD: 80}

		ssA, err := newSharedSet(p.A, opt)
		if err != nil {
			t.Fatal(err)
		}
		is, opening, err := ssA.newInitiator(ssA.opt, initiatorCall{specD: 80, adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		ssB, err := newSharedSet(p.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		iStream, rStream := driveEngine(t, is, opening, respondTo(ssB))
		engRes := is.res
		if engRes == nil {
			t.Fatal("engine produced no result")
		}

		var streamed []uint64
		res, sent, received := teeSync(t, mustSet(t, p.A, WithOptions(*opt)), mustSet(t, p.B, WithOptions(*opt)),
			WithOnDelta(func(elems []uint64, round int) {
				streamed = append(streamed, elems...)
			}))
		if !bytes.Equal(sent, iStream) {
			t.Fatalf("strong=%v: fast Set.Sync wire stream diverges from engine frames (%d vs %d bytes)",
				strong, len(sent), len(iStream))
		}
		if !bytes.Equal(received, rStream) {
			t.Fatalf("strong=%v: fast Set.Respond wire stream diverges from engine frames (%d vs %d bytes)",
				strong, len(received), len(rStream))
		}
		if len(res.Difference) != len(engRes.Difference) ||
			res.Complete != engRes.Complete ||
			res.Rounds != engRes.Rounds ||
			res.WireBytes != engRes.WireBytes ||
			res.PayloadBytes != engRes.PayloadBytes ||
			res.EstimatorBytes != engRes.EstimatorBytes ||
			res.EstimatedD != engRes.EstimatedD {
			t.Fatalf("strong=%v: Set result %+v != engine result %+v", strong, res, engRes)
		}
		assertSameSet(t, res.Difference, p.Diff)
		// The streamed deltas must reconstruct the final difference exactly.
		assertSameSet(t, streamed, res.Difference)
	}
}

// TestFastSyncUndersizedSpeculation pins the degrade path: a speculative
// round sized well under the true difference is still answered (it falls
// inside the acceptance window), round 1 leaves some groups undecoded, and
// the normal split machinery finishes the job in later rounds with the
// exact difference — piecewise decodability making the mis-sized gamble
// safe.
func TestFastSyncUndersizedSpeculation(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 80, Seed: 65})
	opt := &Options{Seed: 66}
	const specD = 45 // true d̂ ≈ 80: inside the 2·45+16 acceptance window

	ssA, err := newSharedSet(p.A, opt)
	if err != nil {
		t.Fatal(err)
	}
	is, opening, err := ssA.newInitiator(ssA.opt, initiatorCall{specD: specD, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	ssB, err := newSharedSet(p.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, rStream := driveEngine(t, is, opening, respondTo(ssB))

	rFrames := parseStream(t, rStream)
	if rFrames[0].Type != frame.MsgHelloReplyV1 {
		t.Fatalf("first responder frame type %d, want %d", rFrames[0].Type, frame.MsgHelloReplyV1)
	}
	rep, err := frame.ParseHelloReply(rFrames[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Answered {
		t.Fatalf("speculation d_spec=%d declined at d̂=%d; want it inside the acceptance window", specD, rep.Dhat)
	}
	if !fastSpecAccepted(specD, rep.Dhat) {
		t.Fatalf("responder answered outside its own acceptance rule (d_spec=%d, d̂=%d)", specD, rep.Dhat)
	}
	res := is.res
	if res == nil || !res.Complete {
		t.Fatalf("undersized speculation did not complete: %+v", res)
	}
	if res.Rounds < 2 {
		t.Fatalf("undersized speculation finished in %d round(s); expected the degrade into round 2+", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
}

// TestSpeculativeDSizing pins the speculation sizing: an explicit
// WithKnownD wins outright, a cold handle opens at DefaultSpeculativeD, and
// a warm handle sizes from the last difference plus slim headroom.
func TestSpeculativeDSizing(t *testing.T) {
	s, err := NewSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.speculativeD(Options{}); got != DefaultSpeculativeD {
		t.Fatalf("cold handle speculated %d, want DefaultSpeculativeD=%d", got, DefaultSpeculativeD)
	}
	if got := s.speculativeD(Options{KnownD: 7}); got != 7 {
		t.Fatalf("KnownD=7 speculated %d, want 7", got)
	}
	s.specPrior.Store(21) // last sync learned a difference of 20
	base := s.speculativeD(Options{})
	if base <= 20 {
		t.Fatalf("warm speculation %d carries no headroom over the prior difference 20", base)
	}
}

// TestFastSyncDeclinedSpeculation pins the decline path: a speculation the
// estimate dwarfs is not answered; both sides re-plan deterministically
// from the true d̂ and the session still converges on the exact difference.
func TestFastSyncDeclinedSpeculation(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 500, Seed: 67})
	opt := &Options{Seed: 68}

	ssA, err := newSharedSet(p.A, opt)
	if err != nil {
		t.Fatal(err)
	}
	is, opening, err := ssA.newInitiator(ssA.opt, initiatorCall{specD: 1, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	ssB, err := newSharedSet(p.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, rStream := driveEngine(t, is, opening, respondTo(ssB))

	rFrames := parseStream(t, rStream)
	rep, err := frame.ParseHelloReply(rFrames[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answered {
		t.Fatalf("responder answered a d_spec=1 speculation at d̂=%d", rep.Dhat)
	}
	if fastSpecAccepted(1, rep.Dhat) {
		t.Fatalf("acceptance rule admits d̂=%d against d_spec=1", rep.Dhat)
	}
	res := is.res
	if res == nil || !res.Complete {
		t.Fatalf("declined speculation did not complete: %+v", res)
	}
	assertSameSet(t, res.Difference, p.Diff)
}

// TestClientLegacyFallback stands up a protocol-0 peer (serveV0: it answers
// every frame with msgError, as a build without the fast hello does) and
// pins that there is no fallback: the client's sync ends on its one
// connection with the peer's diagnostic as a *PeerError, and never redials
// with another opening.
func TestClientLegacyFallback(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 1000, D: 15, Seed: 69})
	opt := Options{Seed: 70}
	tl := startWireResponder(t, "v0", p.B, opt)

	c := &Client{Addr: tl.Addr().String(), Options: &opt, Timeout: time.Minute}
	_, err := c.Sync(p.A)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Msg != "pbs: unexpected message type 10" {
		t.Fatalf("client against a protocol-0 peer: %v, want the peer's diagnostic as a *PeerError", err)
	}
	if Retryable(err) {
		t.Fatalf("an uncoded refusal is retryable: %v", err)
	}
	var opened []byte
	for _, c := range tl.taps() {
		if in, _ := c.bytes(); len(in) >= frame.HeaderLen {
			_, typ := frame.ParseHeader(in)
			opened = append(opened, typ)
		}
	}
	if !bytes.Equal(opened, []byte{frame.MsgHelloV1}) {
		t.Fatalf("connections opened with frame types %v, want one fast hello and no redial", opened)
	}
}

// TestFastSyncServerNamedSet covers the server-side admission path: a fast
// hello names the registry set inline (no separate msgHello frame), the
// server admits against it, and a warm connection runs fast sessions back
// to back. An unknown name is rejected with the server's own coded
// diagnostic, surfaced as a *PeerError.
func TestFastSyncServerNamedSet(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 71})
	opt := Options{Seed: 72}
	srv := NewServer(ServerOptions{Protocol: &opt})
	if err := srv.Register("catalog", p.B); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	set, err := NewSet(p.A, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ { // warm connection: sessions in sequence
		res, err := set.Sync(context.Background(), conn, WithSetName("catalog"))
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if !res.Complete {
			t.Fatalf("sync %d incomplete", i)
		}
		assertSameSet(t, res.Difference, p.Diff)
	}
	// The closing msgDone is fire-and-forget; give the server a moment to
	// process the last one before sampling the counter.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Completed != 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.Completed != 3 {
		t.Fatalf("server completed %d sessions, want 3", st.Completed)
	}

	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_, err = set.Sync(context.Background(), conn2, WithSetName("no-such-set"))
	if pe := (*PeerError)(nil); !errors.As(err, &pe) || pe.Code != ErrCodeRejected {
		t.Fatalf("unknown set error = %v, want the server's rejected-coded PeerError", err)
	}
}

// TestFastHelloVersionNegotiation pins the two engine-level negotiation
// signals: a responder rejects a hello version it does not speak (the
// resulting msgError is what an old initiator of the future sees), and an
// initiator surfaces a msgError answer to its fast hello as the peer's
// *PeerError.
func TestFastHelloVersionNegotiation(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 500, D: 5, Seed: 73})
	opt := &Options{Seed: 74}
	ssB, err := newSharedSet(p.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	hello := frame.AppendHello(nil, frame.Hello{Version: 99})
	if _, _, err := respondTo(ssB).step(frame.MsgHelloV1, hello); err == nil {
		t.Fatal("responder accepted an unknown hello version")
	}

	ssA, err := newSharedSet(p.A, opt)
	if err != nil {
		t.Fatal(err)
	}
	is, _, err := ssA.newInitiator(ssA.opt, initiatorCall{specD: 5, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = is.step(frame.MsgError, []byte("pbs: unexpected message type 10"))
	if pe := (*PeerError)(nil); !errors.As(err, &pe) || pe.Msg != "pbs: unexpected message type 10" {
		t.Fatalf("msgError answer = %v, want the peer's diagnostic as a *PeerError", err)
	}
}

// TestPayloadPoolCap is the regression guard for the pool-pinning fix: a
// buffer grown past maxPooledBuf by one huge frame must not be eligible
// for the pool, while every normally sized buffer still recycles.
func TestPayloadPoolCap(t *testing.T) {
	if !frame.Poolable(frame.MaxPooledBuf) {
		t.Fatalf("buffer at the %d-byte cap should pool", frame.MaxPooledBuf)
	}
	if frame.Poolable(frame.MaxPooledBuf + 1) {
		t.Fatal("buffer past the cap must not pool")
	}
	big := make([]byte, 0, frame.MaxPooledBuf+1)
	frame.PutBuf(&big) // must drop it, not pin it
}

// TestNotifyPeerErrorStalledPeer checks that the best-effort msgError
// notification cannot hang teardown: against a peer that never reads (a
// net.Pipe end), the bounded write returns within its short deadline.
func TestNotifyPeerErrorStalledPeer(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	start := time.Now()
	notifyPeerError(ca, errors.New("boom"))
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("notifyPeerError blocked %v against a stalled peer", elapsed)
	}
}
