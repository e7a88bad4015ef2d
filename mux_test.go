package pbs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/frame"
)

// dialMux dials the test server and wraps the connection for multiplexing.
func dialMux(t *testing.T, addr string, opts ...MuxOption) *MuxConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMuxConn(conn, opts...)
	t.Cleanup(func() { mc.Close() })
	return mc
}

// muxSyncClient runs client i's full fast sync on a fresh stream from mc
// and checks the exact difference, mirroring the per-connection clients of
// server_test.go.
func muxSyncClient(mc *MuxConn, base []uint64, opt *Options, i int) error {
	st, err := mc.Stream()
	if err != nil {
		return fmt.Errorf("client %d: Stream: %w", i, err)
	}
	defer st.Close()
	local, want := clientSetAndDiff(base, i)
	set, err := NewSet(local, WithOptions(*opt))
	if err != nil {
		return fmt.Errorf("client %d: %w", i, err)
	}
	res, err := set.Sync(context.Background(), st, WithIdleTimeout(time.Minute))
	if err != nil {
		return fmt.Errorf("client %d: %w", i, err)
	}
	if !res.Complete {
		return fmt.Errorf("client %d: incomplete", i)
	}
	got, exp := sortedU64(res.Difference), sortedU64(want)
	if len(got) != len(exp) {
		return fmt.Errorf("client %d: |diff| = %d, want %d", i, len(got), len(exp))
	}
	for j := range got {
		if got[j] != exp[j] {
			return fmt.Errorf("client %d: diff mismatch at %d", i, j)
		}
	}
	return nil
}

// TestMuxManyStreamsOneConn is the multiplexing acceptance scenario: 64
// concurrent syncs interleaving over one dialed connection, every one
// learning its exact difference. Run with -race: the streams share the
// MuxConn's writer, reader, and stream table.
func TestMuxManyStreamsOneConn(t *testing.T) {
	base := testBaseSet(3000)
	opt := &Options{Seed: 7001}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})
	mc := dialMux(t, addr)

	const streams = 64
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := muxSyncClient(mc, base, opt, i); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if muxOn, _ := mc.Granted(); !muxOn {
		t.Fatal("server did not grant multiplexing")
	}
	st := waitForCompleted(t, srv, streams)
	if st.StreamsTotal != streams {
		t.Fatalf("StreamsTotal = %d, want %d", st.StreamsTotal, streams)
	}
	if st.StreamsOpen != 0 {
		t.Fatalf("StreamsOpen = %d after all sessions completed", st.StreamsOpen)
	}
}

// TestMuxStreamBudgetIsolation pins per-stream fault isolation: a stream
// that blows its byte budget gets a coded error and dies alone — a sibling
// syncing concurrently and a stream opened afterwards are untouched.
func TestMuxStreamBudgetIsolation(t *testing.T) {
	base := testBaseSet(2000)
	opt := &Options{Seed: 9201}
	_, addr := startTestServer(t, base, ServerOptions{
		Protocol:          opt,
		SessionByteBudget: 1 << 16,
	})
	mc := dialMux(t, addr)

	// The negotiating sync doubles as proof a clean session fits the budget.
	if err := muxSyncClient(mc, base, opt, 0); err != nil {
		t.Fatal(err)
	}

	stB, err := mc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	cErr := make(chan error, 1)
	go func() { cErr <- muxSyncClient(mc, base, opt, 1) }()

	// Stream B opens with a single frame twice the per-stream byte budget.
	if _, err := stB.Write(frame.Append(nil, frame.MsgRound, make([]byte, 128<<10))); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := frame.ReadInto(stB, frame.MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.MsgError {
		t.Fatalf("budget violation answered with type %d, want msgError", typ)
	}
	pe := parsePeerErrPayload(payload)
	if pe.Code != ErrCodeRejected || !strings.Contains(pe.Msg, "byte budget") {
		t.Fatalf("peer error %q with code %q, want rejected byte-budget error", pe.Msg, pe.Code)
	}

	if err := <-cErr; err != nil {
		t.Fatalf("sibling stream disturbed: %v", err)
	}
	if err := muxSyncClient(mc, base, opt, 2); err != nil {
		t.Fatalf("connection unusable after per-stream failure: %v", err)
	}
}

// TestMuxStreamIDExhaustion pins the allocator's upper bound: once the ID
// space is spent, Stream reports ErrStreamsExhausted instead of wrapping
// into IDs that could collide.
func TestMuxStreamIDExhaustion(t *testing.T) {
	base := testBaseSet(500)
	opt := &Options{Seed: 9301}
	_, addr := startTestServer(t, base, ServerOptions{Protocol: opt})
	mc := dialMux(t, addr)
	if err := muxSyncClient(mc, base, opt, 0); err != nil {
		t.Fatal(err)
	}
	mc.mu.Lock()
	mc.nextID = maxStreamID + 1
	mc.mu.Unlock()
	if _, err := mc.Stream(); !errors.Is(err, ErrStreamsExhausted) {
		t.Fatalf("Stream past the ID space: err = %v, want ErrStreamsExhausted", err)
	}
}

// muxEnvelopeFrames serializes session frames as enveloped wire frames on
// one stream: the open flag on the first frame when open is set, the close
// flag riding the session's own goodbye.
func muxEnvelopeFrames(dst []byte, id uint64, open bool, frames []frame.Frame) []byte {
	for i, f := range frames {
		var flags uint64
		if open && i == 0 {
			flags |= frame.FlagOpen
		}
		if f.Type == frame.MsgDone || f.Type == frame.MsgStreamClose {
			flags |= frame.FlagClose
		}
		dst, _ = frame.Seal(dst, id, flags, f.Type, f.Payload, false)
	}
	return dst
}

// readMuxFrame reads one enveloped frame off the raw connection and asserts
// it belongs to stream id.
func readMuxFrame(t *testing.T, conn net.Conn, id uint64) (byte, []byte) {
	t.Helper()
	typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	gotID, _, body, _, err := frame.Open(payload, false)
	if err != nil {
		t.Fatalf("frame.Open: %v", err)
	}
	if gotID != id {
		t.Fatalf("frame for stream %d, want %d", gotID, id)
	}
	return typ, body
}

// muxRawNegotiate drives the version-2 handshake by hand on a raw
// connection: the negotiating fast sync runs to completion on stream 1 —
// hello and reply under legacy framing, everything after the grant
// enveloped — and the granted feature bits are returned.
func muxRawNegotiate(t *testing.T, conn net.Conn, local []uint64, opt *Options, features uint64) uint64 {
	t.Helper()
	ss, err := newSharedSet(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	is, opening, err := ss.newInitiator(ss.opt, initiatorCall{specD: 32, features: features, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range opening {
		if _, err := frame.WriteAll(conn, oneFrame(f.Type, f.Payload)); err != nil {
			t.Fatal(err)
		}
	}
	typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.MsgHelloReplyV1 {
		t.Fatalf("reply type %d, want msgHelloReplyV1", typ)
	}
	rep, err := frame.ParseHelloReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Features&frame.FeatureMux == 0 {
		t.Fatalf("server declined mux: granted %#x", rep.Features)
	}
	out, done, err := is.step(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if b := muxEnvelopeFrames(nil, 1, false, out); len(b) > 0 {
			if _, err := conn.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		if done {
			break
		}
		typ, body := readMuxFrame(t, conn, 1)
		out, done, err = is.step(typ, body)
		if err != nil {
			t.Fatal(err)
		}
	}
	if res := is.res; res == nil || !res.Complete {
		t.Fatal("negotiating sync incomplete")
	}
	return rep.Features
}

// muxRawSync drives one complete fast sync enveloped on stream id of an
// already-negotiated raw connection and returns its result.
func muxRawSync(t *testing.T, conn net.Conn, id uint64, local []uint64, opt *Options) *Result {
	t.Helper()
	ss, err := newSharedSet(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	is, opening, err := ss.newInitiator(ss.opt, initiatorCall{specD: 32, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(muxEnvelopeFrames(nil, id, true, opening)); err != nil {
		t.Fatal(err)
	}
	for {
		typ, body := readMuxFrame(t, conn, id)
		out, done, err := is.step(typ, body)
		if err != nil {
			t.Fatal(err)
		}
		if b := muxEnvelopeFrames(nil, id, false, out); len(b) > 0 {
			if _, err := conn.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		if done {
			break
		}
	}
	res := is.res
	if res == nil || !res.Complete {
		t.Fatalf("sync on stream %d incomplete", id)
	}
	return res
}

// TestMuxStreamIDReuse pins the server side of ID lifecycle: a stream ID
// freed by a completed session can carry a brand-new session later — IDs
// name live streams, not history.
func TestMuxStreamIDReuse(t *testing.T) {
	base := testBaseSet(1000)
	opt := &Options{Seed: 9401}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local0, _ := clientSetAndDiff(base, 0)
	muxRawNegotiate(t, conn, local0, opt, frame.FeatureMux)
	for i := 1; i <= 2; i++ {
		local, want := clientSetAndDiff(base, i)
		res := muxRawSync(t, conn, 5, local, opt)
		got, exp := sortedU64(res.Difference), sortedU64(want)
		if len(got) != len(exp) {
			t.Fatalf("reuse round %d: |diff| = %d, want %d", i, len(got), len(exp))
		}
	}
	if st := waitForCompleted(t, srv, 3); st.StreamsTotal != 3 {
		t.Fatalf("StreamsTotal = %d, want 3", st.StreamsTotal)
	}
}

// TestMuxUnknownStreamRejected pins the demultiplexer's handling of frames
// for streams that were never opened: a coded rejection on that stream ID,
// with the connection and its other streams carrying on.
func TestMuxUnknownStreamRejected(t *testing.T) {
	base := testBaseSet(1000)
	opt := &Options{Seed: 9501}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local0, _ := clientSetAndDiff(base, 0)
	muxRawNegotiate(t, conn, local0, opt, frame.FeatureMux)

	// A round frame for stream 99, which was never opened.
	if _, err := conn.Write(muxEnvelopeFrames(nil, 99, false, []frame.Frame{{Type: frame.MsgRound, Payload: []byte{1, 2, 3}}})); err != nil {
		t.Fatal(err)
	}
	typ, body := readMuxFrame(t, conn, 99)
	if typ != frame.MsgError {
		t.Fatalf("unknown stream answered with type %d, want msgError", typ)
	}
	pe := parsePeerErrPayload(body)
	if pe.Code != ErrCodeRejected || !strings.Contains(pe.Msg, "unknown stream") {
		t.Fatalf("peer error %q with code %q, want rejected unknown-stream error", pe.Msg, pe.Code)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	// The rejection was per-stream: a fresh stream on the same connection
	// still completes.
	local2, _ := clientSetAndDiff(base, 2)
	muxRawSync(t, conn, 2, local2, opt)
	waitForCompleted(t, srv, 2)
}

// TestMuxCompression negotiates lz frame compression and checks large
// sketch frames actually shrink on the wire: the server's saved-bytes
// counter must move while every sync still reconciles exactly.
func TestMuxCompression(t *testing.T) {
	// A small set keeps the ToW counters tiny, so the zigzag-varint sketch
	// payload (4 KiB of it) is low-entropy and genuinely compressible —
	// lz.Compress declines high-entropy bodies rather than padding them.
	base := testBaseSet(8)
	opt := &Options{Seed: 8101, EstimatorSketches: 4096}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})
	mc := dialMux(t, addr, WithMuxCompression(true))

	for i := 0; i < 2; i++ {
		if err := muxSyncClient(mc, base, opt, i); err != nil {
			t.Fatal(err)
		}
	}
	muxOn, lzOn := mc.Granted()
	if !muxOn || !lzOn {
		t.Fatalf("Granted() = (%v, %v), want both features", muxOn, lzOn)
	}
	st := waitForCompleted(t, srv, 2)
	if st.BytesSavedCompression <= 0 {
		t.Fatalf("BytesSavedCompression = %d after compressed sketch frames", st.BytesSavedCompression)
	}
}

// TestMuxDeclined pins the downgrade paths: a legacy single-stream peer and
// a server with mux disabled both answer the feature offer with a plain
// version-1 reply — the negotiating sync still completes as an ordinary
// fast sync and only later Stream calls report the decline.
func TestMuxDeclined(t *testing.T) {
	base := testBaseSet(500)
	opt := &Options{Seed: 9601}

	t.Run("LegacyPeer", func(t *testing.T) {
		serverSet, err := NewSet(base, WithOptions(*opt))
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := net.Pipe()
		defer cb.Close()
		respErr := make(chan error, 1)
		go func() { respErr <- serverSet.Respond(context.Background(), cb, WithIdleTimeout(time.Second)) }()

		mc := NewMuxConn(ca)
		defer mc.Close()
		st, err := mc.Stream()
		if err != nil {
			t.Fatal(err)
		}
		local, want := clientSetAndDiff(base, 0)
		set, err := NewSet(local, WithOptions(*opt))
		if err != nil {
			t.Fatal(err)
		}
		res, err := set.Sync(context.Background(), st, WithIdleTimeout(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete || len(res.Difference) != len(want) {
			t.Fatalf("passthrough sync: complete=%v |diff|=%d, want %d", res.Complete, len(res.Difference), len(want))
		}
		if err := <-respErr; err != nil {
			t.Fatal(err)
		}
		if _, err := mc.Stream(); !errors.Is(err, ErrMuxDeclined) {
			t.Fatalf("second Stream: err = %v, want ErrMuxDeclined", err)
		}
		if muxOn, lzOn := mc.Granted(); muxOn || lzOn {
			t.Fatalf("Granted() = (%v, %v) from a legacy peer", muxOn, lzOn)
		}
	})

	t.Run("ServerMuxDisabled", func(t *testing.T) {
		_, addr := startTestServer(t, base, ServerOptions{Protocol: opt, MaxStreams: -1})
		mc := dialMux(t, addr)
		if err := muxSyncClient(mc, base, opt, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mc.Stream(); !errors.Is(err, ErrMuxDeclined) {
			t.Fatalf("second Stream: err = %v, want ErrMuxDeclined", err)
		}
	})
}
