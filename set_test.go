package pbs

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/workload"
)

// waitNoExtraGoroutines waits for the goroutine count to drop back to the
// baseline, failing the test if pumps or watchers leaked.
func waitNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), before)
}

func TestSetAddRemoveSemantics(t *testing.T) {
	s, err := NewSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || !s.Contains(2) || s.Contains(9) {
		t.Fatal("initial state wrong")
	}
	added, err := s.Add(3, 4, 5)
	if err != nil || added != 2 {
		t.Fatalf("Add = (%d, %v), want (2, nil)", added, err)
	}
	if removed := s.Remove(1, 99); removed != 1 {
		t.Fatalf("Remove = %d, want 1", removed)
	}
	got := s.Elements()
	assertSameSet(t, got, []uint64{2, 3, 4, 5})
	// Invalid elements fail atomically: nothing is inserted.
	if _, err := s.Add(7, 0); err == nil {
		t.Fatal("zero element accepted")
	}
	if s.Contains(7) {
		t.Fatal("partial insert after failed Add")
	}
	// Out-of-universe element under SigBits.
	s8, err := NewSet([]uint64{10}, WithSigBits(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s8.Add(256); err == nil {
		t.Fatal("element wider than SigBits accepted")
	}
	// The constructor rejects duplicates and invalid elements.
	if _, err := NewSet([]uint64{5, 5}); err == nil {
		t.Fatal("duplicate accepted by NewSet")
	}
	if _, err := NewSet([]uint64{0}); err == nil {
		t.Fatal("zero accepted by NewSet")
	}
}

// TestSetSyncCancellation cancels a sync stuck against a black-hole peer
// (a pipe nobody reads) and requires a prompt context.Canceled with no
// leaked goroutines — the ctx-plumbing acceptance criterion.
func TestSetSyncCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewSet([]uint64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Sync(ctx, ca)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sync returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	waitNoExtraGoroutines(t, base)
}

// TestSetRespondCancellation: the responder side of the same contract.
func TestSetRespondCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if err := s.Respond(ctx, cb); !errors.Is(err, context.Canceled) {
		t.Fatalf("Respond returned %v, want context.Canceled", err)
	}
	waitNoExtraGoroutines(t, base)
}

// TestSetSyncDeadline: a context deadline behaves like cancellation but
// surfaces as DeadlineExceeded.
func TestSetSyncDeadline(t *testing.T) {
	s, err := NewSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := s.Sync(ctx, ca); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sync returned %v, want context.DeadlineExceeded", err)
	}
}

// serveSet registers set under name on a fresh Server whose protocol
// options are opt, and serves it on a loopback listener. The caller owns
// the returned Server and must Close it; serveErr yields Serve's result.
func serveSet(t *testing.T, name string, set *Set, opt *Options) (srv *Server, addr string, serveErr <-chan error) {
	t.Helper()
	srv = NewServer(ServerOptions{Protocol: opt})
	if err := srv.RegisterSet(name, set); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), errCh
}

// TestServerCloseCancellation serves a registered Set, completes one sync
// against it, closes the server, and requires Serve to return nil without
// leaking its accept/handler goroutines.
func TestServerCloseCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 40, Seed: 63})
	server, err := NewSet(p.B, WithSeed(64))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, serveErr := serveSet(t, DefaultSetName, server, &Options{Seed: 64})

	c := &Client{Addr: addr, Options: &Options{Seed: 64}, Timeout: 10 * time.Second}
	res, err := c.Sync(p.A)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("sync incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)

	srv.Close()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	waitNoExtraGoroutines(t, base)
}

// TestSetMutateDuringSync hammers Add/Remove on both handles while syncs
// are in flight between them — the race-detector acceptance test for the
// mutable handle. A final quiescent sync must still learn the exact
// difference.
func TestSetMutateDuringSync(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 60, Seed: 65})
	opt := []Option{WithSeed(66)}
	sa, err := NewSet(p.A, opt...)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSet(p.B, opt...)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range []*Set{sa, sb} {
		wg.Add(1)
		go func(s *Set) {
			defer wg.Done()
			// Churn elements in a private 33-bit-tagged range so the
			// workload's ground truth stays intact... except these all fit
			// 32 bits: use a high odd range unlikely to collide with the
			// generated IDs, and remove everything added before exiting.
			var mine []uint64
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					s.Remove(mine...)
					return
				default:
				}
				x := 0xF000_0001 + i*2
				if _, err := s.Add(x); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, x)
				if len(mine) > 64 {
					s.Remove(mine[0])
					mine = mine[1:]
				}
				s.Len()
				s.Contains(x)
			}
		}(s)
	}

	for i := 0; i < 8; i++ {
		ca, cb := net.Pipe()
		respErr := make(chan error, 1)
		go func() {
			defer cb.Close()
			respErr <- sb.Respond(context.Background(), cb)
		}()
		if _, err := sa.Sync(context.Background(), ca); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		ca.Close()
		if err := <-respErr; err != nil {
			t.Fatalf("respond %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent: the churned elements are gone, so the exact workload
	// difference must be learned.
	ca, cb := net.Pipe()
	go sb.Respond(context.Background(), cb)
	res, err := sa.Sync(context.Background(), ca, WithStrongVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("final sync incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
}

// TestSetOnDeltaStreamsBeforeFinalRound is the streaming acceptance
// fixture: with a deliberately tiny Gamma both endpoints underestimate d,
// groups overload and split, the session takes several rounds — and
// WithOnDelta must deliver a nonempty batch before the final round
// completes, with the batches reassembling exactly into the result.
func TestSetOnDeltaStreamsBeforeFinalRound(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 8000, D: 400, Seed: 67})
	opts := []Option{WithSeed(68), WithGamma(0.05)}
	sa, err := NewSet(p.A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSet(p.B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var (
		batchRounds []int
		streamed    []uint64
	)
	ca, cb := net.Pipe()
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- sb.Respond(context.Background(), cb)
	}()
	res, err := sa.Sync(context.Background(), ca,
		WithOnDelta(func(elems []uint64, round int) {
			if len(elems) == 0 {
				t.Error("empty delta batch")
			}
			batchRounds = append(batchRounds, round)
			streamed = append(streamed, elems...)
		}))
	ca.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-respErr; err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("sync incomplete")
	}
	if res.Rounds < 2 {
		t.Fatalf("fixture finished in %d round(s); want a multi-round session", res.Rounds)
	}
	if len(batchRounds) == 0 || batchRounds[0] >= res.Rounds {
		t.Fatalf("no delta batch before the final round (batch rounds %v of %d total)", batchRounds, res.Rounds)
	}
	assertSameSet(t, streamed, res.Difference)
	assertSameSet(t, streamed, p.Diff)
}

// TestOptionsValidation: nonsense option values must fail fast at the API
// boundary with a pbs-prefixed diagnostic, not a deep internal error.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative Delta", Options{Delta: -1}},
		{"negative TargetRounds", Options{TargetRounds: -3}},
		{"TargetSuccess one", Options{TargetSuccess: 1}},
		{"TargetSuccess negative", Options{TargetSuccess: -0.5}},
		{"SigBits low", Options{SigBits: 7}},
		{"SigBits high", Options{SigBits: 65}},
		{"negative EstimatorSketches", Options{EstimatorSketches: -8}},
		{"negative Gamma", Options{Gamma: -1.38}},
		{"negative KnownD", Options{KnownD: -2}},
		{"negative Parallelism", Options{Parallelism: -4}},
	}
	small := []uint64{1, 2, 3}
	valid := mustSet(t, small)
	for _, tc := range cases {
		for caller, err := range map[string]error{
			"PlanFor": func() error { _, err := PlanFor(4, &tc.opt); return err }(),
			"NewSet":  func() error { _, err := NewSet(small, WithOptions(tc.opt)); return err }(),
			"Set.Reconcile": func() error {
				_, err := valid.Reconcile(context.Background(), valid, WithOptions(tc.opt))
				return err
			}(),
			"newSharedSet": func() error {
				_, err := newSharedSet(small, &tc.opt)
				return err
			}(),
		} {
			if err == nil {
				t.Errorf("%s: %s accepted invalid options", tc.name, caller)
				continue
			}
			if !strings.HasPrefix(err.Error(), "pbs:") {
				t.Errorf("%s: %s error %q not pbs-prefixed", tc.name, caller, err)
			}
		}
	}
}

// TestStructuralOptionsFixedAtNewSet: per-call attempts to change the
// fields the cached state was built under must be rejected.
func TestStructuralOptionsFixedAtNewSet(t *testing.T) {
	s, err := NewSet([]uint64{1, 2, 3}, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for name, opt := range map[string]Option{
		"Seed":              WithSeed(6),
		"SigBits":           WithSigBits(16),
		"EstimatorSketches": WithEstimatorSketches(64),
	} {
		if _, err := s.Sync(context.Background(), &buf, opt); err == nil ||
			!strings.Contains(err.Error(), "structural") {
			t.Errorf("%s changed per-call: err=%v", name, err)
		}
	}
	// The same value is not a change.
	sb, err := NewSet([]uint64{1, 2, 9}, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reconcile(context.Background(), sb, WithSeed(5)); err != nil {
		t.Fatalf("same-value structural option rejected: %v", err)
	}
	// A wholesale per-call WithOptions bridge with defaults left zero is
	// also not a change: zero still means "default" after the per-call
	// merge (regression: callConfig must re-resolve defaults).
	if _, err := s.Reconcile(context.Background(), sb, WithOptions(Options{Seed: 5})); err != nil {
		t.Fatalf("WithOptions migration bridge rejected per call: %v", err)
	}
}

// TestSyncRestoresConnDeadlines: the pump must hand the connection back
// with no deadline armed, so callers can run a follow-up protocol on it.
func TestSyncRestoresConnDeadlines(t *testing.T) {
	sa, err := NewSet([]uint64{1, 2, 3, 4}, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSet([]uint64{1, 2, 5}, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	respErr := make(chan error, 1)
	go func() { respErr <- sb.Respond(context.Background(), cb, WithIdleTimeout(time.Second)) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := sa.Sync(ctx, ca, WithIdleTimeout(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := <-respErr; err != nil {
		t.Fatal(err)
	}
	// Both ends must be reusable after the short deadlines would have
	// fired: a write on one side paired with a read on the other.
	time.Sleep(1100 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 5)
		_, err := cb.Read(buf)
		done <- err
	}()
	if _, err := ca.Write([]byte("hello")); err != nil {
		t.Fatalf("post-sync write failed: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("post-sync read failed: %v", err)
	}
}

// TestClientBlackHoleServer is the regression for the client-hang bugfix:
// against a server that accepts and then never answers, the client must
// fail by its own deadline machinery — Timeout (context deadline wired
// into conn deadlines) or IdleTimeout (per-frame bound) — instead of
// hanging forever as the deadline-less old client did.
func TestClientBlackHoleServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow everything, answer nothing.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	local := []uint64{1, 2, 3, 4, 5}
	for name, c := range map[string]*Client{
		"Timeout":     {Addr: ln.Addr().String(), Timeout: 250 * time.Millisecond},
		"IdleTimeout": {Addr: ln.Addr().String(), IdleTimeout: 250 * time.Millisecond},
	} {
		start := time.Now()
		_, err := c.Sync(local)
		if err == nil {
			t.Fatalf("%s: sync against a black-hole server succeeded", name)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: client hung %v against a black-hole server", name, elapsed)
		}
	}

	// And via an explicit context deadline on SyncContext.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	c := &Client{Addr: ln.Addr().String()}
	if _, err := c.SyncContext(ctx, local); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SyncContext returned %v, want context.DeadlineExceeded", err)
	}
}

// TestServeLiveMutation: sessions admitted after a mutation of a
// registered Set see the new contents; the amortized view rebuild is
// exercised end to end through RegisterSet, Serve and Client.
func TestServeLiveMutation(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2500, D: 50, Seed: 69})
	server, err := NewSet(p.B, WithSeed(70))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, serveErr := serveSet(t, DefaultSetName, server, &Options{Seed: 70})

	c := &Client{Addr: addr, Options: &Options{Seed: 70}, Timeout: 10 * time.Second}
	res, err := c.Sync(p.A)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, res.Difference, p.Diff)

	// Converge the server to the client's set; the next sync sees zero
	// difference — through the same long-lived Serve.
	for _, x := range p.Diff {
		if server.Contains(x) {
			server.Remove(x)
		} else if _, err := server.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.Sync(p.A)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Difference) != 0 || !res.Complete {
		t.Fatalf("after server mutation: %d differences, complete=%v", len(res.Difference), res.Complete)
	}
	srv.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestServerRegisterSetNamed: a live Set in a multi-set Server registry,
// alongside an immutable one.
func TestServerRegisterSetNamed(t *testing.T) {
	live, err := NewSet([]uint64{10, 20, 30}, WithSeed(71))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{Protocol: &Options{Seed: 71}})
	if err := srv.RegisterSet("live", live); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(DefaultSetName, []uint64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	// Structural mismatch is rejected at registration.
	other, err := NewSet([]uint64{1}, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterSet("bad", other); err == nil {
		t.Fatal("seed-mismatched Set registered")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c := &Client{Addr: ln.Addr().String(), Set: "live", Options: &Options{Seed: 71}, Timeout: 10 * time.Second}
	res, err := c.Sync([]uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, res.Difference, []uint64{30})
	if _, err := live.Add(99); err != nil {
		t.Fatal(err)
	}
	res, err = c.Sync([]uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, res.Difference, []uint64{30, 99})
}

// TestSetSyncAgainstServeNamed: Set.Sync with WithSetName reaches a Set a
// Server registered under that name.
func TestSetSyncAgainstServeNamed(t *testing.T) {
	server, err := NewSet([]uint64{7, 8, 9}, WithSeed(72))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, serveErr := serveSet(t, "catalog", server, &Options{Seed: 72})

	client, err := NewSet([]uint64{7}, WithSeed(72))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := client.Sync(context.Background(), conn, WithSetName("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, res.Difference, []uint64{8, 9})
	srv.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestReconcileContextCancelled: the in-process driver honors ctx too.
func TestReconcileContextCancelled(t *testing.T) {
	sa, err := NewSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSet([]uint64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sa.Reconcile(ctx, sb); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reconcile returned %v, want context.Canceled", err)
	}
}

// TestSetWarmReuseManySyncs re-syncs one handle many times against varying
// peers, interleaving mutations — the amortization path (snapshot and
// sketch survive across syncs, rebuilt only after mutations).
func TestSetWarmReuseManySyncs(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 30, Seed: 73})
	sa, err := NewSet(p.A, WithSeed(74))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSet(p.B, WithSeed(74))
	if err != nil {
		t.Fatal(err)
	}
	extras := []uint64{}
	for i := 0; i < 5; i++ {
		ca, cb := net.Pipe()
		respErr := make(chan error, 1)
		go func() {
			defer cb.Close()
			respErr <- sb.Respond(context.Background(), cb)
		}()
		res, err := sa.Sync(context.Background(), ca)
		ca.Close()
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if err := <-respErr; err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("sync %d incomplete", i)
		}
		want := append(append([]uint64(nil), p.Diff...), extras...)
		assertSameSet(t, res.Difference, want)
		// Drift sa by one fresh element per iteration; later syncs must see
		// the growing difference through the same warm handle.
		x := 0xABC0 + uint64(i)
		if _, err := sa.Add(x); err != nil {
			t.Fatal(err)
		}
		extras = append(extras, x)
	}
}
