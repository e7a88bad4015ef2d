package pbs

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/frame"
)

// startTestServer builds a Server around one shared base set, serves it on
// a loopback listener, and tears everything down with the test.
func startTestServer(t *testing.T, base []uint64, opt ServerOptions) (*Server, string) {
	t.Helper()
	srv := NewServer(opt)
	if err := srv.Register(DefaultSetName, base); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// testBaseSet returns a deterministic server-side set of n elements.
func testBaseSet(n int) []uint64 {
	set := make([]uint64, n)
	for i := range set {
		set[i] = uint64(i + 1)
	}
	return set
}

// clientSetAndDiff derives client i's local set from the base — a few
// elements removed, a few private ones added — plus the exact expected
// difference.
func clientSetAndDiff(base []uint64, i int) (local, diff []uint64) {
	removed := map[uint64]struct{}{}
	for j := 0; j < 3; j++ {
		removed[base[(i*17+j*5)%len(base)]] = struct{}{}
	}
	for _, x := range base {
		if _, gone := removed[x]; !gone {
			local = append(local, x)
		}
	}
	for j := 0; j < 3; j++ {
		added := uint64(0x40000000 + i*8 + j)
		local = append(local, added)
		diff = append(diff, added)
	}
	for x := range removed {
		diff = append(diff, x)
	}
	return local, diff
}

func sortedU64(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestServerManyConcurrentSessions is the acceptance scenario: well over
// 100 concurrent reconciliations against one shared responder snapshot
// through the TCP server, every one learning its exact difference. Run
// with -race: the sessions share the snapshot's partitions, ToW sketch,
// and verification digest.
func TestServerManyConcurrentSessions(t *testing.T) {
	base := testBaseSet(3000)
	opt := &Options{Seed: 1009, StrongVerify: true}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})

	const sessions = 120
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, want := clientSetAndDiff(base, i)
			c := &Client{Addr: addr, Options: opt, Timeout: time.Minute}
			res, err := c.Sync(local)
			if err != nil {
				errCh <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if !res.Complete {
				errCh <- fmt.Errorf("client %d: incomplete", i)
				return
			}
			got, exp := sortedU64(res.Difference), sortedU64(want)
			if len(got) != len(exp) {
				errCh <- fmt.Errorf("client %d: |diff| = %d, want %d", i, len(got), len(exp))
				return
			}
			for j := range got {
				if got[j] != exp[j] {
					errCh <- fmt.Errorf("client %d: diff mismatch at %d", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Clients return as soon as they have read their last frame; the
	// server-side handlers account the session a beat later. Poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var st ServerStats
	for {
		st = srv.Stats()
		if (st.Completed == sessions && st.Active == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Completed != sessions {
		t.Fatalf("completed = %d, want %d (failed=%d rejected=%d)",
			st.Completed, sessions, st.Failed, st.Rejected)
	}
	if st.Active != 0 {
		t.Fatalf("active = %d after all sessions ended", st.Active)
	}
}

func TestServerNamedSets(t *testing.T) {
	opt := &Options{Seed: 11}
	srv, addr := startTestServer(t, testBaseSet(100), ServerOptions{Protocol: opt})
	if err := srv.Register("alt", []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	c := &Client{Addr: addr, Set: "alt", Options: opt, Timeout: time.Minute}
	res, err := c.Sync([]uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Difference) != 1 || res.Difference[0] != 4 {
		t.Fatalf("alt-set sync got %v", res.Difference)
	}

	c = &Client{Addr: addr, Set: "missing", Options: opt, Timeout: time.Minute}
	if _, err := c.Sync([]uint64{1}); err == nil || !strings.Contains(err.Error(), "unknown set") {
		t.Fatalf("want unknown-set error, got %v", err)
	}
}

func TestServerSessionCapacity(t *testing.T) {
	opt := &Options{Seed: 13}
	_, addr := startTestServer(t, testBaseSet(100), ServerOptions{
		Protocol:    opt,
		MaxSessions: 1,
	})

	// Occupy the only slot with an idle raw connection...
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	time.Sleep(100 * time.Millisecond) // let the server's handler start

	// ...so the next connection must be turned away with the server's
	// reason. Read it raw: the server sends msgError without waiting for
	// input, and a racing protocol write could see a broken pipe instead.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.MsgError || !strings.Contains(string(payload), "capacity") {
		t.Fatalf("want capacity msgError, got type %d %q", typ, payload)
	}
}

func TestServerByteBudget(t *testing.T) {
	opt := &Options{Seed: 17}
	srv, addr := startTestServer(t, testBaseSet(100), ServerOptions{
		Protocol:          opt,
		SessionByteBudget: 64, // smaller than one estimate frame
	})
	c := &Client{Addr: addr, Options: opt, Timeout: 10 * time.Second}
	if _, err := c.Sync([]uint64{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "byte budget") {
		t.Fatalf("want byte-budget rejection, got %v", err)
	}
	if st := srv.Stats(); st.Failed == 0 {
		t.Fatal("byte-budget violation not counted as failed")
	}
}

func TestServerRoundBudget(t *testing.T) {
	opt := &Options{Seed: 19}
	_, addr := startTestServer(t, testBaseSet(500), ServerOptions{
		Protocol:         opt,
		SessionMaxRounds: 2,
	})

	// Drive the protocol by hand so the one permitted msgRound can be
	// replayed: the hello (its speculative round declined) spends the
	// first unit of the budget, the msgRound the second, and the replay
	// must trip it.
	sess, opening := helloInitiator(t, testBaseSet(500)[100:], opt, "", 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := frame.WriteAll(conn, opening); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := sess.step(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Type != frame.MsgRound {
		t.Fatalf("expected a round frame, got %+v", out)
	}
	// Round 1: allowed.
	if _, err := frame.WriteAll(conn, out); err != nil {
		t.Fatal(err)
	}
	if _, _, err := frame.ReadInto(conn, frame.MaxFrame, nil); err != nil {
		t.Fatal(err)
	}
	// Round 2 (a replay): over budget, must come back as msgError.
	if _, err := frame.WriteAll(conn, out); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.MsgError || !strings.Contains(string(payload), "round budget") {
		t.Fatalf("want round-budget msgError, got type %d %q", typ, payload)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	opt := &Options{Seed: 23}
	_, addr := startTestServer(t, testBaseSet(100), ServerOptions{
		Protocol:    opt,
		IdleTimeout: 50 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Send nothing: the server must drop the connection, not wait forever.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept an idle connection past its deadline")
	}
}

func TestServerShutdownDrains(t *testing.T) {
	base := testBaseSet(2000)
	opt := &Options{Seed: 29}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})

	const sessions = 8
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, _ := clientSetAndDiff(base, i)
			c := &Client{Addr: addr, Options: opt, Timeout: time.Minute}
			_, err := c.Sync(local)
			errCh <- err
		}(i)
	}
	wg.Wait() // all sessions done before shutdown: drain must be instant

	// An idle probe connection (dialed, never sent a frame) is not a
	// session and must not hold the drain hostage.
	probe, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	time.Sleep(50 * time.Millisecond)

	if !srv.Shutdown(5 * time.Second) {
		t.Fatal("shutdown failed to drain an idle server")
	}
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}
	// A post-shutdown dial must not be served.
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if n, rerr := conn.Read(buf); rerr == nil && n > 0 {
			t.Fatal("closed server still answering")
		}
		conn.Close()
	}
}

// TestServerSessionReusePerConnection exercises the warm-client shape: one
// TCP connection carrying several sequential sessions, each opened by a
// fresh hello/estimate after the previous msgDone, with per-session
// budgets reset and every session recorded in the stats histograms.
func TestServerSessionReusePerConnection(t *testing.T) {
	base := testBaseSet(800)
	opt := &Options{Seed: 77}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt})

	local, want := clientSetAndDiff(base, 3)
	set, err := NewSet(local, WithOptions(*opt))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const syncs = 3
	for i := 0; i < syncs; i++ {
		res, err := set.Sync(context.Background(), conn)
		if err != nil {
			t.Fatalf("sync %d over the shared connection: %v", i, err)
		}
		if !res.Complete {
			t.Fatalf("sync %d incomplete", i)
		}
		got, exp := sortedU64(res.Difference), sortedU64(want)
		if len(got) != len(exp) {
			t.Fatalf("sync %d: |diff| = %d, want %d", i, len(got), len(exp))
		}
	}

	st := waitForCompleted(t, srv, syncs)
	if st.Accepted != 1 {
		t.Fatalf("accepted = %d connections, want 1 (reused)", st.Accepted)
	}
	if st.Failed != 0 || st.Rejected != 0 {
		t.Fatalf("failed=%d rejected=%d, want 0/0", st.Failed, st.Rejected)
	}
	for name, h := range map[string]HistogramSummary{
		"LatencyUS":     st.LatencyUS,
		"SessionRounds": st.SessionRounds,
		"SessionBytes":  st.SessionBytes,
	} {
		if h.Count != syncs {
			t.Errorf("%s.Count = %d, want %d", name, h.Count, syncs)
		}
		if h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > float64(h.Max) {
			t.Errorf("%s quantiles not monotone: %+v", name, h)
		}
	}
	if st.SessionRounds.Max < 1 {
		t.Errorf("SessionRounds.Max = %d, want >= 1", st.SessionRounds.Max)
	}
	if st.SessionBytes.Sum != st.BytesIn+st.BytesOut {
		t.Errorf("SessionBytes.Sum = %d, want BytesIn+BytesOut = %d",
			st.SessionBytes.Sum, st.BytesIn+st.BytesOut)
	}
	if st.LatencyUS.Max <= 0 {
		t.Errorf("LatencyUS.Max = %d, want > 0", st.LatencyUS.Max)
	}
}

// waitForCompleted polls the server stats until the expected number of
// completed sessions is accounted (clients return before the server-side
// handler books the session).
func waitForCompleted(t *testing.T, srv *Server, want int64) ServerStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if (st.Completed == want && st.Active == 0) || time.Now().After(deadline) {
			if st.Completed != want {
				t.Fatalf("completed = %d, want %d (failed=%d rejected=%d)",
					st.Completed, want, st.Failed, st.Rejected)
			}
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}
