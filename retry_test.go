package pbs

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/chaos"
	"pbs/internal/frame"
	"pbs/internal/workload"
)

// recordConn records everything written through it (the initiator's frame
// stream), for frame-type assertions over a live net.Conn.
type recordConn struct {
	net.Conn
	mu sync.Mutex
	wr bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wr.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *recordConn) writes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.wr.Bytes()...)
}

// pipeResponder spawns one Respond call for set over a fresh pipe and
// returns the initiator's end. Responder failures are expected when the
// test kills the connection mid-round; they drain into the background.
func pipeResponder(t *testing.T, set *Set) net.Conn {
	t.Helper()
	ca, cb := net.Pipe()
	go func() {
		defer cb.Close()
		set.Respond(context.Background(), cb)
	}()
	return ca
}

// TestRetryResumesFastPath is the resumption satellite: attempt 1 dies on
// an injected mid-frame disconnect (the initiator's closing frame is cut
// off mid-write, after the responder's d̂ already arrived), and attempt 2
// — reusing that learned d̂ as its speculation prior instead of the cold
// DefaultSpeculativeD — completes over the single-round-trip fast path:
// exactly [msgHelloV1, msgDone] from the initiator, one round.
func TestRetryResumesFastPath(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 4})
	opt := Options{Seed: 42}
	setA, err := NewSet(p.A, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	setB, err := NewSet(p.B, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		dials    int
		rec      *recordConn
		injected []chaos.Event
	)
	pol := RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			dials++
			conn := pipeResponder(t, setB)
			if dials == 1 {
				return chaos.Wrap(conn, chaos.Config{
					Seed:     1,
					Schedule: []chaos.Fault{{Frame: 1, Dir: chaos.Send, Kind: chaos.Drop}},
					OnFault: func(ev chaos.Event) {
						injected = append(injected, ev)
					},
				}, 1), nil
			}
			rec = &recordConn{Conn: conn}
			return rec, nil
		},
	}
	var retried []error
	var prior uint64
	pol.OnRetry = func(attempt int, err error, _ time.Duration) {
		retried = append(retried, err)
		prior = setA.specPrior.Load()
	}

	res, err := setA.Sync(context.Background(), nil, WithRetry(pol))
	if err != nil {
		t.Fatalf("retried sync failed: %v", err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)

	if dials != 2 || len(retried) != 1 {
		t.Fatalf("want exactly one retry (2 dials), got %d dials, %d retries", dials, len(retried))
	}
	if len(injected) != 1 || injected[0].Kind != chaos.Drop {
		t.Fatalf("fault schedule fired %+v, want one Drop", injected)
	}
	if !Retryable(retried[0]) {
		t.Fatalf("mid-round disconnect classified non-retryable: %v", retried[0])
	}
	if prior == 0 {
		t.Fatal("failed attempt did not seed the speculation prior with the learned d̂")
	}

	// The resumption assertion: attempt 2 rode the 1-RTT fast path on the
	// d̂ learned before attempt 1 died.
	if res.Rounds != 1 {
		t.Fatalf("attempt 2 took %d rounds, want 1 (learned d̂ prior not reused)", res.Rounds)
	}
	frames := parseStream(t, rec.writes())
	it := frameTypes(frames)
	if len(it) != 2 || it[0] != frame.MsgHelloV1 || it[1] != frame.MsgDone {
		t.Fatalf("attempt 2 initiator sent frame types %v, want [%d %d] (1 RTT)", it, frame.MsgHelloV1, frame.MsgDone)
	}
	// And its hello was sized by the learned prior, not the cold default.
	h, err := frame.ParseHello(frames[0].Payload)
	if err != nil {
		t.Fatalf("attempt 2 hello did not parse: %v", err)
	}
	d := prior - 1
	if want := d + d/8 + 8; h.SpecD != want {
		t.Fatalf("attempt 2 speculated d = %d, want %d from the learned prior %d", h.SpecD, want, prior)
	}
	if h.SpecD == DefaultSpeculativeD {
		t.Fatalf("attempt 2 fell back to the cold DefaultSpeculativeD")
	}
}

// TestVerifyFailureNotRetried: a tampered verification digest must surface
// as ErrVerificationFailed after exactly one attempt — retrying a
// determinism failure would just burn the budget.
func TestVerifyFailureNotRetried(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 81})
	opt := Options{Seed: 82, StrongVerify: true, KnownD: 40}
	setA, err := NewSet(p.A, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	setB, err := NewSet(p.B, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}

	dials := 0
	pol := RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials++
			honest := pipeResponder(t, setB)
			// A tampering proxy: every msgHelloReplyV1 has its digest
			// bytes flipped before reaching the initiator.
			ca, cb := net.Pipe()
			go func() { // initiator -> responder passthrough
				defer honest.Close()
				buf := make([]byte, 4096)
				for {
					n, err := cb.Read(buf)
					if n > 0 {
						if _, werr := honest.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
			go func() { // responder -> initiator, digest tampered
				defer cb.Close()
				for {
					typ, payload, err := frame.ReadInto(honest, frame.MaxFrame, nil)
					if err != nil {
						return
					}
					if typ == frame.MsgHelloReplyV1 {
						if rep, perr := frame.ParseHelloReply(payload); perr == nil && rep.Digest != nil {
							rep.Digest[0] ^= 0xFF
							payload = frame.AppendHelloReply(nil, rep)
						}
					}
					if _, err := frame.WriteAll(cb, oneFrame(typ, payload)); err != nil {
						return
					}
				}
			}()
			return ca, nil
		},
	}

	_, err = setA.Sync(context.Background(), nil, WithRetry(pol))
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("want ErrVerificationFailed, got %v", err)
	}
	if dials != 1 {
		t.Fatalf("verification failure was retried: %d dials", dials)
	}
	if strings.Contains(err.Error(), "attempts") {
		t.Fatalf("non-retryable error wrapped in attempt exhaustion: %v", err)
	}
}

// TestMaxDViolationNotRetried: a d̂ over the configured MaxD is a
// validation rejection, not a transient fault.
func TestMaxDViolationNotRetried(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 4000, D: 1000, Seed: 91})
	opt := Options{Seed: 92}
	setA, err := NewSet(p.A, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	setB, err := NewSet(p.B, WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}

	dials := 0
	pol := RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials++
			return pipeResponder(t, setB), nil
		},
	}
	_, err = setA.Sync(context.Background(), nil,
		WithMaxD(50), WithRetry(pol))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("want d̂-over-MaxD rejection, got %v", err)
	}
	if Retryable(err) {
		t.Fatalf("MaxD violation classified retryable: %v", err)
	}
	if dials != 1 {
		t.Fatalf("MaxD violation was retried: %d dials", dials)
	}
}

// TestRetryDialFailures: a Dial failure that is not retried — a
// non-retryable error, or any error once the context has ended — comes
// back as it is after one call of the hook, not dressed up as an exhausted
// attempt budget; a retryable one is retried up to the budget, and the
// final error counts the attempts made.
func TestRetryDialFailures(t *testing.T) {
	set, err := NewSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	noRoute := errors.New("no route to catalog")
	for _, tc := range []struct {
		name      string
		dial      func(context.Context, context.CancelFunc) error
		wantDials int
		wantMsg   string // empty: the error must be the hook's own
	}{
		{"non-retryable", func(context.Context, context.CancelFunc) error { return noRoute }, 1, ""},
		{"cancelled", func(ctx context.Context, cancel context.CancelFunc) error {
			cancel()
			return ctx.Err()
		}, 1, ""},
		{"retryable", func(context.Context, context.CancelFunc) error { return net.ErrClosed }, 3, "after 3 attempts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var dials int
			var hookErr error
			pol := RetryPolicy{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				Dial: func(ctx context.Context) (net.Conn, error) {
					dials++
					hookErr = tc.dial(ctx, cancel)
					return nil, hookErr
				},
			}
			_, err := set.Sync(ctx, nil, WithRetry(pol))
			if dials != tc.wantDials {
				t.Fatalf("Dial called %d times, want %d", dials, tc.wantDials)
			}
			switch {
			case tc.wantMsg == "" && err != hookErr:
				t.Fatalf("Sync returned %v, want the hook's own error %v", err, hookErr)
			case tc.wantMsg != "" && (!errors.Is(err, hookErr) || !strings.Contains(err.Error(), tc.wantMsg)):
				t.Fatalf("Sync returned %v, want %v %s", err, hookErr, tc.wantMsg)
			}
		})
	}
}

// TestServerBusyRetry: a hard-capacity rejection surfaces as ErrServerBusy
// (not a fast-path downgrade), and a retrying client succeeds once the
// capacity frees up.
func TestServerBusyRetry(t *testing.T) {
	opt := &Options{Seed: 23}
	srv, addr := startTestServer(t, testBaseSet(100), ServerOptions{
		Protocol:       opt,
		MaxSessions:    1,
		RetryAfterHint: 5 * time.Millisecond,
	})

	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	time.Sleep(100 * time.Millisecond) // let the hog's handler start

	// Without a retry policy the rejection is immediate and errors.Is-able.
	local := []uint64{1, 2, 3}
	_, err = dialSync(addr, "", opt, local)
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy, got %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Code != ErrCodeBusy {
		t.Fatalf("want busy-coded PeerError, got %v", err)
	}
	if pe.RetryAfter != 10*time.Millisecond { // hard cap hints 2x the base
		t.Fatalf("retry-after hint = %v, want 10ms", pe.RetryAfter)
	}

	// With a policy, Sync dials every attempt and keeps trying; releasing
	// the hog on the first retry lets a later attempt in.
	set, err := NewSet(local, WithOptions(*opt))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var once sync.Once
	res, err := set.Sync(ctx, nil, WithRetry(RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   5 * time.Millisecond,
		Dial:        dialTo(addr),
		OnRetry: func(int, error, time.Duration) {
			once.Do(func() { hold.Close() })
		},
	}))
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if !res.Complete {
		t.Fatal("retrying client got an incomplete result")
	}
	if st := srv.Stats(); st.Rejected == 0 {
		t.Fatal("busy rejections not counted")
	}
}

// TestServerSoftWatermark: connections above SoftSessionWatermark are shed
// with a busy-coded retry-after hint while the hard cap still has room.
func TestServerSoftWatermark(t *testing.T) {
	opt := &Options{Seed: 29}
	srv, addr := startTestServer(t, testBaseSet(100), ServerOptions{
		Protocol:             opt,
		MaxSessions:          64,
		SoftSessionWatermark: 1,
		RetryAfterHint:       5 * time.Millisecond,
	})

	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	time.Sleep(100 * time.Millisecond)

	_, err = dialSync(addr, "", opt, []uint64{1, 2, 3})
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy from watermark shed, got %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.RetryAfter != 5*time.Millisecond {
		t.Fatalf("watermark shed should hint the base retry-after, got %v", err)
	}
	st := srv.Stats()
	if st.Shed == 0 || st.Rejected == 0 {
		t.Fatalf("shed not counted: %+v", st)
	}
}

// TestPeerErrorSanitized: a hostile responder's oversized, control-byte
// msgError must reach the caller bounded and printable.
func TestPeerErrorSanitized(t *testing.T) {
	set, err := NewSet([]uint64{1, 2, 3}, WithOptions(Options{Seed: 31}))
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	go func() {
		defer cb.Close()
		if _, _, err := frame.ReadInto(cb, frame.MaxFrame, nil); err != nil { // swallow the hello
			return
		}
		hostile := append(bytes.Repeat([]byte{0x07}, 2048), "tail"...)
		frame.WriteAll(cb, oneFrame(frame.MsgError, hostile))
	}()

	errCh := make(chan error, 1)
	go func() {
		_, err := set.Sync(context.Background(), ca, WithIdleTimeout(5*time.Second))
		errCh <- err
	}()
	select {
	case err = <-errCh:
	case <-time.After(faultTimeout):
		t.Fatal("sync hung on hostile msgError")
	}
	if err == nil {
		t.Fatal("hostile msgError produced no error")
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PeerError, got %T: %v", err, err)
	}
	msg := err.Error()
	if len(msg) > maxPeerErrLen+64 {
		t.Fatalf("peer error not bounded: %d bytes", len(msg))
	}
	for _, r := range msg {
		if r < 0x20 && r != ' ' {
			t.Fatalf("control byte %#x survived sanitization: %q", r, msg)
		}
	}
	if Retryable(err) {
		t.Fatalf("uncoded peer error classified retryable: %v", err)
	}
}

// tempErrListener always fails Accept with a temporary error until closed
// — the EMFILE-flood shape that drives the accept loop's backoff.
type tempErrListener struct {
	closed chan struct{}
	once   sync.Once
}

type tempErr struct{}

func (tempErr) Error() string   { return "simulated transient accept failure" }
func (tempErr) Temporary() bool { return true }
func (tempErr) Timeout() bool   { return false }

func (l *tempErrListener) Accept() (net.Conn, error) {
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	case <-time.After(time.Millisecond):
		return nil, tempErr{}
	}
}
func (l *tempErrListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}
func (l *tempErrListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestCloseInterruptsAcceptBackoff: Close during the accept loop's backoff
// sleep must return promptly, not after the full (up to 1s) backoff.
func TestCloseInterruptsAcceptBackoff(t *testing.T) {
	srv := NewServer(ServerOptions{})
	if err := srv.Register(DefaultSetName, testBaseSet(10)); err != nil {
		t.Fatal(err)
	}
	ln := &tempErrListener{closed: make(chan struct{})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Let the repeated temporary failures escalate the backoff well past
	// the responsiveness bound asserted below.
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	srv.Close()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(faultTimeout):
		t.Fatal("Serve did not return after Close")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("Close took %v to interrupt the accept backoff", el)
	}
}
