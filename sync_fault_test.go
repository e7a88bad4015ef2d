package pbs

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"pbs/internal/estimator"
	"pbs/internal/frame"
	"pbs/internal/workload"
)

// Fault-injection coverage for the wire protocol: every malformed input —
// truncated frames, corrupted payloads, oversized frames, unexpected
// message types — must surface as an error on the affected endpoint, never
// a hang or a panic. net.Pipe gives fully synchronous delivery, so a test
// that passes here cannot be masked by kernel buffering.

// faultTimeout bounds every fault test; a blocked endpoint is a failure,
// not a slow test.
const faultTimeout = 10 * time.Second

// withDeadline runs fn and fails the test if it does not return in time.
func withDeadline(t *testing.T, name string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(faultTimeout):
		t.Fatalf("%s: endpoint hung on malformed input", name)
		return nil
	}
}

func TestSyncResponderTruncatedHeader(t *testing.T) {
	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3})
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	// Three bytes of a five-byte frame header, then EOF.
	if _, err := ca.Write([]byte{0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	ca.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("responder accepted a truncated frame header")
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on truncated header")
	}
}

func TestSyncResponderTruncatedPayload(t *testing.T) {
	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3})
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	// A header declaring 100 payload bytes, followed by only 4.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 100)
	hdr[4] = frame.MsgHelloV1
	ca.Write(hdr[:])
	ca.Write([]byte{1, 2, 3, 4})
	ca.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("responder accepted a truncated payload")
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on truncated payload")
	}
}

func TestSyncOversizedFrameRejected(t *testing.T) {
	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3})
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	// Header declaring a payload over maxFrame: must be rejected before any
	// allocation or read of the body.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], frame.MaxFrame+1)
	hdr[4] = frame.MsgHelloV1
	ca.Write(hdr[:])
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("want frame-limit error, got %v", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on oversized frame")
	}
	ca.Close()
}

func TestSyncResponderUnexpectedType(t *testing.T) {
	// The retired protocol-0 openings (estimate 1, verify 5, bare hello 8)
	// are refused like any other stray type.
	for _, typ := range []byte{1, 5, 8, frame.MsgHelloReplyV1, frame.MsgRoundReply, 0xEE} {
		ca, cb := net.Pipe()
		errCh := make(chan error, 1)
		resp := mustSet(t, []uint64{1, 2, 3})
		go func() { errCh <- resp.Respond(context.Background(), cb) }()
		if _, err := frame.WriteAll(ca, oneFrame(typ, []byte{1})); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatalf("responder accepted unexpected message type %d", typ)
			}
		case <-time.After(faultTimeout):
			t.Fatalf("responder hung on unexpected message type %d", typ)
		}
		ca.Close()
	}
}

func TestSyncRoundBeforeEstimateRejected(t *testing.T) {
	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3})
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	frame.WriteAll(ca, oneFrame(frame.MsgRound, []byte{0x08}))
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "round before estimation") {
			t.Fatalf("want round-before-estimation error, got %v", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on early round message")
	}
	ca.Close()
}

func TestSyncInitiatorUnexpectedReplyType(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 500, D: 5, Seed: 21})
	ca, cb := net.Pipe()
	go func() {
		defer cb.Close()
		// Swallow the hello, answer with the wrong message type.
		if _, _, err := frame.ReadInto(cb, frame.MaxFrame, nil); err != nil {
			return
		}
		frame.WriteAll(cb, oneFrame(frame.MsgRoundReply, []byte{1, 2, 3}))
	}()
	initiator := mustSet(t, p.A, WithSeed(22))
	err := withDeadline(t, "initiator", func() error {
		_, err := initiator.Sync(context.Background(), ca)
		return err
	})
	ca.Close()
	if err == nil || !strings.Contains(err.Error(), "expected message type") {
		t.Fatalf("want message-type error, got %v", err)
	}
}

func TestSyncInitiatorCorruptEstimateReply(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 500, D: 5, Seed: 23})
	ca, cb := net.Pipe()
	go func() {
		defer cb.Close()
		if _, _, err := frame.ReadInto(cb, frame.MaxFrame, nil); err != nil {
			return
		}
		// An unterminated varint: ten continuation bytes and no final group.
		frame.WriteAll(cb, oneFrame(frame.MsgHelloReplyV1, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}))
	}()
	initiator := mustSet(t, p.A, WithSeed(24))
	err := withDeadline(t, "initiator", func() error {
		_, err := initiator.Sync(context.Background(), ca)
		return err
	})
	ca.Close()
	if err == nil {
		t.Fatal("initiator accepted a corrupt hello reply")
	}
}

// corruptingResponder answers honestly, except that every round reply —
// the one inside the hello reply included — is cut off mid-scope.
func corruptingResponder(set []uint64, conn net.Conn, seed uint64) {
	defer conn.Close()
	ss, err := newSharedSet(set, &Options{Seed: seed})
	if err != nil {
		return
	}
	rs := respondTo(ss)
	for {
		typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
		if err != nil {
			return
		}
		out, done, err := rs.step(typ, payload)
		if err != nil || done {
			return
		}
		for i, f := range out {
			cut := len(f.Payload) / 2
			if f.Type == frame.MsgHelloReplyV1 {
				rep, _ := frame.ParseHelloReply(f.Payload)
				cut = len(f.Payload) - len(rep.RoundReply)/2
			}
			// Alice must detect the truncation, not panic.
			out[i].Payload = f.Payload[:cut]
		}
		frame.WriteAll(conn, out)
	}
}

func TestSyncInitiatorCorruptedRoundReply(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 25})
	ca, cb := net.Pipe()
	go corruptingResponder(p.B, cb, 26)
	initiator := mustSet(t, p.A, WithSeed(26))
	err := withDeadline(t, "initiator", func() error {
		_, err := initiator.Sync(context.Background(), ca)
		return err
	})
	ca.Close()
	if err == nil {
		t.Fatal("initiator accepted a corrupted round reply")
	}
}

func TestSyncResponderPeerDisconnect(t *testing.T) {
	// The peer vanishing mid-session must end Set.Respond with an error,
	// not leave it blocked forever.
	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3})
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	ca.Close()
	select {
	case err := <-errCh:
		if err != io.EOF && err != io.ErrClosedPipe {
			if err == nil {
				t.Fatal("responder treated disconnect as success")
			}
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung after peer disconnect")
	}
}

func TestSyncInitiatorOversizedEstimateRejected(t *testing.T) {
	// A hostile responder replies with an absurd d̂: the initiator must
	// reject it before attempting the giant Plan allocation it implies.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 500, D: 5, Seed: 31})
	for _, dhat := range []uint64{DefaultMaxD + 1, 1 << 40, math.MaxUint64} {
		ca, cb := net.Pipe()
		go func() {
			defer cb.Close()
			if _, _, err := frame.ReadInto(cb, frame.MaxFrame, nil); err != nil {
				return
			}
			frame.WriteAll(cb, oneFrame(frame.MsgHelloReplyV1, frame.AppendHelloReply(nil, frame.HelloReply{Version: frame.Version1, Dhat: dhat})))
		}()
		initiator := mustSet(t, p.A, WithSeed(32))
		err := withDeadline(t, "initiator", func() error {
			_, err := initiator.Sync(context.Background(), ca)
			return err
		})
		ca.Close()
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("d̂=%d: want estimate-limit error, got %v", dhat, err)
		}
	}
}

func TestSyncInitiatorCustomMaxD(t *testing.T) {
	// An honest exchange whose true difference estimate exceeds the
	// configured MaxD must fail cleanly on the initiator side too.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 200, Seed: 33})
	resp := mustSet(t, p.B, WithSeed(34))
	ca, cb := net.Pipe()
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		// The responder's cap is left at the default so only the
		// initiator's tighter limit can fire.
		respErr <- resp.Respond(context.Background(), cb)
	}()
	_, err := mustSet(t, p.A, WithSeed(34), WithMaxD(10)).Sync(context.Background(), ca)
	ca.Close()
	<-respErr
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("want estimate-limit error, got %v", err)
	}
}

func TestSyncResponderOversizedEstimateRejected(t *testing.T) {
	// Hostile initiator sketches drive the responder's own estimate over
	// its MaxD: the responder must refuse to build the plan.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 200, Seed: 35})
	resp := mustSet(t, p.B, WithSeed(36), WithMaxD(10))
	ca, cb := net.Pipe()
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- resp.Respond(context.Background(), cb)
	}()
	_, initErr := mustSet(t, p.A, WithSeed(36), WithMaxD(10)).Sync(context.Background(), ca)
	ca.Close()
	select {
	case err := <-respErr:
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("want estimate-limit error, got %v", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on oversized estimate")
	}
	if initErr == nil {
		t.Fatal("initiator must fail when the responder aborts")
	}
}

func TestSyncAsymmetricSmallResponder(t *testing.T) {
	// Peer-to-peer Set.Respond must keep the plain DefaultMaxD: a tiny
	// responder set reconciling against a much larger initiator set is
	// legitimate (the server-side 64·|S| tightening applies only to
	// Server-driven sessions).
	big := make([]uint64, 5000)
	for i := range big {
		big[i] = uint64(i + 1)
	}
	small := big[:10:10]
	res, initErr, respErr := runSync(t, big, small, WithSeed(41))
	if initErr != nil || respErr != nil {
		t.Fatalf("asymmetric sync failed: init=%v resp=%v", initErr, respErr)
	}
	if !res.Complete || len(res.Difference) != 4990 {
		t.Fatalf("complete=%v |diff|=%d, want complete with 4990", res.Complete, len(res.Difference))
	}
}

func TestSyncResponderRejectionNotifiesInitiator(t *testing.T) {
	// When the responder's hardening rejects the session, the blocking
	// initiator must receive the msgError diagnostic, not hang forever.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 200, Seed: 43})
	resp := mustSet(t, p.B, WithSeed(44), WithMaxD(10))
	ca, cb := net.Pipe()
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- resp.Respond(context.Background(), cb)
	}()
	initiator := mustSet(t, p.A, WithSeed(44))
	err := withDeadline(t, "initiator", func() error {
		// The initiator keeps the default MaxD, so only the responder
		// rejects; without the msgError frame this read would hang.
		_, err := initiator.Sync(context.Background(), ca)
		return err
	})
	ca.Close()
	<-respErr
	if err == nil || !strings.Contains(err.Error(), "peer error") {
		t.Fatalf("want peer-error diagnostic on the initiator, got %v", err)
	}
}

func TestSyncResponderDuplicateEstimateRejected(t *testing.T) {
	// A second msgHelloV1 mid-session must be rejected, not silently
	// rebuild the responder and discard reconciliation state.
	_, hello := helloInitiator(t, []uint64{6, 7, 8}, &Options{Seed: 37}, "", 8)
	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3, 4, 5}, WithSeed(37))
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	if _, err := frame.WriteAll(ca, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrameT(t, ca, frame.MsgHelloReplyV1); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.WriteAll(ca, hello); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "duplicate estimate") {
			t.Fatalf("want duplicate-estimate error, got %v", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on duplicate estimate")
	}
	ca.Close()
}

// expectFrameT reads one frame and checks its type, for hand-rolled peers
// in fault tests.
func expectFrameT(t *testing.T, r io.Reader, want byte) ([]byte, error) {
	t.Helper()
	typ, payload, err := frame.ReadInto(r, frame.MaxFrame, nil)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("expected message type %d, got %d", want, typ)
	}
	return payload, nil
}

func TestSyncResponderTrailingSketchBytes(t *testing.T) {
	// A valid sketch payload with trailing garbage must fail loudly
	// instead of half-parsing.
	opt := (&Options{Seed: 38}).withDefaults()
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		t.Fatal(err)
	}
	est := append(frame.EncodeSketches(tow.Sketch([]uint64{6, 7, 8})), 0xAB)
	hello := frame.AppendHello(nil, frame.Hello{Version: frame.Version1, SpecD: 8, Sketches: est})

	ca, cb := net.Pipe()
	errCh := make(chan error, 1)
	resp := mustSet(t, []uint64{1, 2, 3}, WithSeed(38))
	go func() { errCh <- resp.Respond(context.Background(), cb) }()
	if _, err := frame.WriteAll(ca, oneFrame(frame.MsgHelloV1, hello)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("want trailing-bytes error, got %v", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on trailing sketch bytes")
	}
	ca.Close()
}

func TestSyncInitiatorTrailingEstimateReplyBytes(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 500, D: 5, Seed: 39})
	ca, cb := net.Pipe()
	go func() {
		defer cb.Close()
		if _, _, err := frame.ReadInto(cb, frame.MaxFrame, nil); err != nil {
			return
		}
		// A valid declined reply followed by garbage the parser must not
		// ignore.
		reply := frame.AppendHelloReply(nil, frame.HelloReply{Version: frame.Version1, Dhat: 5})
		frame.WriteAll(cb, oneFrame(frame.MsgHelloReplyV1, append(reply, 0xCD, 0xEF)))
	}()
	initiator := mustSet(t, p.A, WithSeed(40))
	err := withDeadline(t, "initiator", func() error {
		_, err := initiator.Sync(context.Background(), ca)
		return err
	})
	ca.Close()
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestSyncWrongSketchCountRejected(t *testing.T) {
	// An initiator configured with a different estimator width must be
	// rejected by the responder during the estimate phase.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 1000, D: 5, Seed: 27})
	resp := mustSet(t, p.B, WithSeed(28), WithEstimatorSketches(64))
	ca, cb := net.Pipe()
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- resp.Respond(context.Background(), cb)
	}()
	_, initErr := mustSet(t, p.A, WithSeed(28), WithEstimatorSketches(128)).Sync(context.Background(), ca)
	ca.Close()
	select {
	case err := <-respErr:
		if err == nil || !strings.Contains(err.Error(), "sketches") {
			t.Fatalf("want sketch-count mismatch error, got %v", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("responder hung on sketch-count mismatch")
	}
	if initErr == nil {
		t.Fatal("initiator must fail when the responder aborts")
	}
}
