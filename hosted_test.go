package pbs

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/frame"
)

// hostedBase returns a deterministic element set for hosted set k.
func hostedBase(k, n int) []uint64 {
	set := make([]uint64, n)
	for i := range set {
		set[i] = uint64(k)<<20 | uint64(i+1)
	}
	return set
}

// hostedClientSet derives a client-local view of base with a known exact
// difference: 3 elements removed, 3 private ones added.
func hostedClientSet(base []uint64, k int) (local, diff []uint64) {
	removed := map[uint64]struct{}{}
	for j := 0; j < 3; j++ {
		removed[base[(k*13+j*7)%len(base)]] = struct{}{}
	}
	for _, x := range base {
		if _, gone := removed[x]; !gone {
			local = append(local, x)
		}
	}
	for j := 0; j < 3; j++ {
		added := uint64(0x40000000 + k*8 + j)
		local = append(local, added)
		diff = append(diff, added)
	}
	for x := range removed {
		diff = append(diff, x)
	}
	return local, diff
}

func serveHosted(t *testing.T, srv *Server) string {
	t.Helper()
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
	return ln.Addr().String()
}

func mustSyncExact(t *testing.T, addr string, opt *Options, name string, local, want []uint64) {
	t.Helper()
	res, err := dialSync(addr, name, opt, local)
	if err != nil {
		t.Fatalf("sync %q: %v", name, err)
	}
	got, exp := sortedU64(res.Difference), sortedU64(want)
	if len(got) != len(exp) {
		t.Fatalf("sync %q: |diff| = %d, want %d", name, len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("sync %q: diff mismatch at %d", name, i)
		}
	}
}

// TestHostedColdEstimateWithoutLoad is the key invariant of cold hosting:
// an evicted (cold) hosted set answers a hello whose speculation it
// declines entirely from its persisted footer — d̂ from the sketch, and
// the strong-verification digest — without paging a single element in.
// Only the next msgRound forces the cold load.
func TestHostedColdEstimateWithoutLoad(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 4242}
	base := hostedBase(1, 800)

	// Server A hosts the set and persists it.
	srvA := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := srvA.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	if err := srvA.Host("t1/cold", base); err != nil {
		t.Fatal(err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Server B recovers it cold: footer-only reads, no elements.
	srvB := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	n, err := srvB.EnableHosting()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sets, want 1", n)
	}
	addr := serveHosted(t, srvB)

	// The local set is 100 elements short of the base, far outside the
	// acceptance window of a d_spec = 1 speculation.
	is, opening := helloInitiator(t, base[100:], &Options{Seed: 4242, StrongVerify: true}, "t1/cold", 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := frame.WriteAll(conn, opening); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.MsgHelloReplyV1 {
		t.Fatalf("hello got frame type %d, want msgHelloReplyV1", typ)
	}
	rep, err := frame.ParseHelloReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answered || rep.Digest == nil || rep.Dhat == 0 {
		t.Fatalf("reply answered=%v digest=%x d̂=%d, want a declined speculation with d̂ and the digest",
			rep.Answered, rep.Digest, rep.Dhat)
	}
	if st := srvB.Stats(); st.ColdLoads != 0 || st.SetsResident != 0 {
		t.Fatalf("the hello paged the set in: ColdLoads = %d, SetsResident = %d", st.ColdLoads, st.SetsResident)
	}

	// The first msgRound needs the bin sums, which is the cold load. The
	// session then runs to completion, and its strong verification checks
	// the footer's digest against the set the rounds reconciled to.
	out, done, err := is.step(typ, payload)
	for rounds := 0; ; rounds++ {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := frame.WriteAll(conn, out); err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if typ, payload, err = frame.ReadInto(conn, frame.MaxFrame, nil); err != nil {
			t.Fatal(err)
		}
		if st := srvB.Stats(); rounds == 0 && st.ColdLoads != 1 {
			t.Fatalf("first msgRound: ColdLoads = %d, want 1", st.ColdLoads)
		}
		out, done, err = is.step(typ, payload)
	}
	assertSameSet(t, is.res.Difference, base[:100])
	waitFor(t, func() bool { return srvB.Stats().Completed == 1 })
	if st := srvB.Stats(); st.ColdLoads != 1 {
		t.Fatalf("full session: ColdLoads = %d, want 1", st.ColdLoads)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestHostedEvictionConvergence serves far more hosted sets than the
// resident watermark admits: every sync must still converge exactly, with
// evictions and cold loads actually happening along the way.
func TestHostedEvictionConvergence(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 99, StrongVerify: true}
	const sets = 24
	const size = 300
	// Each resident set charges ~256 + 8*300 = ~2656 bytes; cap at ~3 sets.
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 8000})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sets; k++ {
		if err := srv.Host(fmt.Sprintf("acme/s%02d", k), hostedBase(k, size)); err != nil {
			t.Fatal(err)
		}
	}
	addr := serveHosted(t, srv)

	// Two passes so sets evicted during pass one must cold-load in pass two.
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < sets; k++ {
			local, want := hostedClientSet(hostedBase(k, size), k)
			mustSyncExact(t, addr, opt, fmt.Sprintf("acme/s%02d", k), local, want)
		}
	}

	st := srv.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under MaxResidentBytes=%d with %d sets", srv.opt.MaxResidentBytes, sets)
	}
	if st.ColdLoads == 0 {
		t.Fatal("no cold loads despite evictions")
	}
	if st.Failed != 0 {
		t.Fatalf("%d failed sessions", st.Failed)
	}
	if st.ResidentBytes > srv.opt.MaxResidentBytes+int64(hostedSetOverhead+8*size) {
		t.Fatalf("resident bytes %d far above watermark %d", st.ResidentBytes, srv.opt.MaxResidentBytes)
	}
	if st.SetsHosted != sets {
		t.Fatalf("SetsHosted = %d, want %d", st.SetsHosted, sets)
	}
}

// TestHostedRestartRecovery mutates hosted sets, shuts down (flushing
// delta segments), restarts over the same directory, and verifies the
// recovered sets converge exactly — including an update applied to a cold
// set after restart.
func TestHostedRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 777}
	const sets = 5
	const size = 200

	srvA := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := srvA.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	finals := make([][]uint64, sets)
	for k := 0; k < sets; k++ {
		base := hostedBase(k, size)
		name := fmt.Sprintf("t/x%d", k)
		if err := srvA.Host(name, base); err != nil {
			t.Fatal(err)
		}
		// Mutate every other set: drop two, add two.
		if k%2 == 0 {
			add := []uint64{uint64(k)<<20 | 1<<18, uint64(k)<<20 | 1<<18 | 1}
			remove := base[:2]
			if err := srvA.HostedUpdate(name, add, remove); err != nil {
				t.Fatal(err)
			}
			finals[k] = append(append([]uint64{}, base[2:]...), add...)
		} else {
			finals[k] = base
		}
	}
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	srvB := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	n, err := srvB.EnableHosting()
	if err != nil {
		t.Fatal(err)
	}
	if n != sets {
		t.Fatalf("recovered %d sets, want %d", n, sets)
	}

	// Update a cold set before any session touches it: the update path
	// must page it in and keep the metadata exact.
	extra := []uint64{0x50000001, 0x50000002}
	if err := srvB.HostedUpdate("t/x1", extra, nil); err != nil {
		t.Fatal(err)
	}
	finals[1] = append(finals[1], extra...)
	if srvB.Stats().ColdLoads == 0 {
		t.Fatal("HostedUpdate on a cold set did not cold-load")
	}

	addr := serveHosted(t, srvB)
	for k := 0; k < sets; k++ {
		local, want := hostedClientSet(finals[k], k)
		mustSyncExact(t, addr, opt, fmt.Sprintf("t/x%d", k), local, want)
	}
}

// TestRegisterAfterServerClose pins the post-shutdown registration
// semantics: every publication path reports ErrServerClosed.
func TestRegisterAfterServerClose(t *testing.T) {
	opt := &Options{Seed: 5}
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: t.TempDir()})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("before", testBaseSet(8)); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if err := srv.Register("after", testBaseSet(8)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Register after close: %v, want ErrServerClosed", err)
	}
	if err := srv.Host("after", testBaseSet(8)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Host after close: %v, want ErrServerClosed", err)
	}
}

// TestRegisterPersists: Register is Host, so on a server with a DataDir the
// set is persisted — its duplicates dropped, an empty name refused — and a
// fresh server on the same directory recovers it cold through
// EnableHosting, and a sync against it learns the exact difference.
func TestRegisterPersists(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 91}
	base := hostedBase(3, 500)
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(DefaultSetName, append(slices.Clone(base), base[:10]...)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("", base); err == nil {
		t.Fatal("Register accepted an empty name")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if n, err := re.EnableHosting(); err != nil || n != 1 {
		t.Fatalf("recovered %d sets (%v), want 1", n, err)
	}
	if st := re.Stats(); st.SetsHosted != 1 || st.SetsResident != 0 {
		t.Fatalf("after recovery: %d sets, %d resident; want 1, cold", st.SetsHosted, st.SetsResident)
	}
	addr := serveHosted(t, re)
	local, want := hostedClientSet(base, 3)
	mustSyncExact(t, addr, opt, "", local, want)
	if got := re.Stats().ColdLoads; got != 1 {
		t.Fatalf("ColdLoads = %d, want 1", got)
	}
}

// TestHostedUpdateRacingUnregister: a set unregistered or replaced while a
// HostedUpdate of it runs is not brought back — the update fails as an
// unknown set, and neither re-registers the name nor re-admits the set to
// the resident accounting. The schedule is stepped: the update waits out
// the set's first segment write (with adds, past its quota reservation),
// the race starts and waits it out too, then the write lands. A
// free-running race follows.
func TestHostedUpdateRacingUnregister(t *testing.T) {
	opt := &Options{Seed: 93}
	base := hostedBase(2, 20_000)
	replacement := hostedBase(4, 100)
	gone := func(srv *Server) error {
		if !srv.Unregister("r") {
			return errors.New("Unregister found no set")
		}
		return nil
	}
	replaced := func(srv *Server) error { return srv.Host("r", replacement) }
	// settled checks the server holds exactly what the race left: no set,
	// or the replacement, charged once.
	settled := func(t *testing.T, srv *Server, want []uint64) {
		t.Helper()
		st := srv.Stats()
		sets, bytes, _ := srv.TenantUsage("")
		hs, ok := srv.sets.Get("r")
		switch {
		case want == nil && ok:
			t.Fatal("the unregistered name is registered again")
		case want != nil && (!ok || hs.snap.Len() != len(want)):
			t.Fatal("the replacement is not what the name maps to")
		}
		n := int64(len(want))
		wantSets := min(n, 1)
		if st.SetsHosted != wantSets || st.SetsResident != wantSets || sets != wantSets ||
			bytes != hostedElemBytes*n || st.ResidentBytes != wantSets*(hostedSetOverhead+hostedElemBytes*n) {
			t.Fatalf("accounting: %d sets, %d resident (%d B), tenant %d sets %d B; want %d sets of %d elements",
				st.SetsHosted, st.SetsResident, st.ResidentBytes, sets, bytes, wantSets, n)
		}
	}
	for _, tc := range []struct {
		name        string
		add, remove []uint64
		race        func(*Server) error
		left        []uint64
	}{
		{"adds/unregister", hostedBase(3, 1000), nil, gone, nil},
		{"removes/unregister", nil, base[:1000], gone, nil},
		{"adds/host", hostedBase(3, 1000), nil, replaced, replacement},
		{"removes/host", nil, base[:1000], replaced, replacement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(ServerOptions{Protocol: opt, DataDir: t.TempDir()})
			q := stepWrites(srv)
			if _, err := srv.EnableHosting(); err != nil {
				t.Fatal(err)
			}
			hosted := make(chan error, 1)
			go func() { hosted <- srv.Host("r", base) }()
			first := <-q.steps
			_, w := stateOf(hostedOf(t, srv, "r"))
			q.awaits(t, "Host", w, hosted)
			done := make(chan error, 1)
			go func() { done <- srv.HostedUpdate("r", tc.add, tc.remove) }()
			q.awaits(t, "HostedUpdate", w, done)
			raced := make(chan error, 1)
			go func() { raced <- tc.race(srv) }()
			q.awaits(t, "the race", w, raced)
			first()
			var errs [3]error
			q.run(func() { errs = [3]error{<-hosted, <-raced, <-done} })
			if errs[0] != nil || errs[1] != nil {
				t.Fatal(errs[0], errs[1])
			}
			if err := errs[2]; err == nil || !strings.Contains(err.Error(), "unknown set") {
				t.Fatalf("HostedUpdate returned %v, want an unknown set", err)
			}
			settled(t, srv, tc.left)
			closeStepped(t, srv, q)
		})
	}
	t.Run("free", func(t *testing.T) {
		for try := 0; try < 3; try++ {
			srv := NewServer(ServerOptions{Protocol: opt})
			if err := srv.Host("r", base); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.HostedUpdate("r", hostedBase(3, 20_000), nil) }()
			time.Sleep(2 * time.Millisecond)
			if err := gone(srv); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil && !strings.Contains(err.Error(), "unknown set") {
				t.Fatal(err)
			}
			settled(t, srv, nil)
			srv.Close()
		}
	})
}

// TestHostedColdLoadAfterUnregister: a session admitted against a cold set
// that is then unregistered still pages the set in for its round, but the
// set stays out of the resident accounting — it left the registry, and in
// the LRU it would evict a registered set and, written, be flushed under a
// name it no longer holds.
func TestHostedColdLoadAfterUnregister(t *testing.T) {
	opt := &Options{Seed: 95}
	const size = 200
	charge := int64(hostedSetOverhead + hostedElemBytes*size)
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: t.TempDir(), MaxResidentBytes: charge + 64})
	defer srv.Close()
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	for k, name := range []string{"c/a", "c/b"} { // c/b evicts c/a
		if err := srv.Host(name, hostedBase(k, size)); err != nil {
			t.Fatal(err)
		}
	}
	view := hostedOf(t, srv, "c/a").sharedView()
	if view.loadSnap == nil {
		t.Fatal("c/a was not evicted")
	}
	if !srv.Unregister("c/a") {
		t.Fatal("Unregister found no set")
	}
	if _, err := view.snapshot(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ColdLoads != 1 || st.Evictions != 1 || st.SetsResident != 1 || st.ResidentBytes != charge {
		t.Fatalf("cold loads %d, evictions %d, %d resident (%d B); want 1, 1, c/b alone (%d B)",
			st.ColdLoads, st.Evictions, st.SetsResident, st.ResidentBytes, charge)
	}
}

// TestTenantQuotas exercises set-count and byte quotas at registration
// and the session quota over the wire, including the retryability split:
// session-quota rejections carry a retry-after hint and are retryable,
// set/byte quota failures are not.
func TestTenantQuotas(t *testing.T) {
	opt := &Options{Seed: 31}
	srv := NewServer(ServerOptions{
		Protocol:    opt,
		TenantQuota: TenantQuota{MaxSets: 2, MaxBytes: 64 * 1024},
	})
	srv.SetTenantQuota("busy", TenantQuota{MaxSessions: 1})

	// Set-count quota.
	if err := srv.Host("t1/a", testBaseSet(16)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("t1/b", testBaseSet(16)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("t1/c", testBaseSet(16)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third set for t1: %v, want ErrQuotaExceeded", err)
	}
	// Independent tenants are unaffected.
	if err := srv.Host("t2/a", testBaseSet(16)); err != nil {
		t.Fatal(err)
	}
	// Byte quota: 64 KiB / 8 = 8192 elements max.
	if err := srv.Host("t3/big", testBaseSet(10000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("oversized set for t3: %v, want ErrQuotaExceeded", err)
	}
	// Unregister releases the charge.
	if !srv.Unregister("t1/b") {
		t.Fatal("Unregister t1/b = false")
	}
	if err := srv.Host("t1/c", testBaseSet(16)); err != nil {
		t.Fatalf("re-host after unregister: %v", err)
	}
	if n := srv.Stats().QuotaRejections; n != 2 {
		t.Fatalf("QuotaRejections = %d, want 2", n)
	}

	// Session quota over the wire: hold one session open for tenant
	// "busy", then a second must be rejected quota-coded and retryable.
	base := testBaseSet(500)
	if err := srv.Host("busy/s", base); err != nil {
		t.Fatal(err)
	}
	addr := serveHosted(t, srv)

	local, want := hostedClientSet(base, 0)
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	hold.SetDeadline(time.Now().Add(30 * time.Second))
	_, opening := helloInitiator(t, local, opt, "busy/s", 32)
	if _, err := frame.WriteAll(hold, opening); err != nil {
		t.Fatal(err)
	}
	// Reading the reply guarantees the server admitted the session (and
	// charged the quota slot) before the second client arrives.
	if typ, _, err := frame.ReadInto(hold, frame.MaxFrame, nil); err != nil || typ != frame.MsgHelloReplyV1 {
		t.Fatalf("hold session: typ=%d err=%v", typ, err)
	}

	// The refusal of the second session's hello keeps its code: one
	// connection, one quota rejection, retryable with the server's hint.
	rejections := srv.Stats().QuotaRejections
	_, err = dialSync(addr, "busy/s", opt, local)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second session: %v, want ErrQuotaExceeded", err)
	}
	if !Retryable(err) {
		t.Fatalf("session-quota rejection not retryable: %v", err)
	}
	if pe := (*PeerError)(nil); !errors.As(err, &pe) || pe.RetryAfter <= 0 {
		t.Fatalf("session-quota rejection %v carries no retry-after hint", err)
	}
	if n := srv.Stats().QuotaRejections - rejections; n != 1 {
		t.Fatalf("the refused sync charged %d quota rejections, want 1", n)
	}

	// Releasing the held session frees the slot.
	frame.WriteAll(hold, oneFrame(frame.MsgDone, nil))
	hold.Close()
	waitFor(t, func() bool {
		_, _, sessions := srv.TenantUsage("busy")
		return sessions == 0
	})
	mustSyncExact(t, addr, opt, "busy/s", local, want)
}

// TestRegistryChurnWithLiveSessions hammers Register/Host/Unregister/
// lookup across the sharded registry from many goroutines while live
// sessions reconcile against a stable set — run under -race in CI.
func TestRegistryChurnWithLiveSessions(t *testing.T) {
	opt := &Options{Seed: 1123}
	srv := NewServer(ServerOptions{Protocol: opt})
	base := testBaseSet(600)
	if err := srv.Register(DefaultSetName, base); err != nil {
		t.Fatal(err)
	}
	addr := serveHosted(t, srv)

	const churners = 32
	const iters = 60
	var wg sync.WaitGroup
	errCh := make(chan error, churners+8)
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			small := testBaseSet(16)
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("t%d/churn%d", g%8, g)
				var err error
				if g%2 == 0 {
					err = srv.Register(name, small)
				} else {
					err = srv.Host(name, small)
				}
				if err != nil {
					errCh <- fmt.Errorf("churner %d: %w", g, err)
					return
				}
				srv.TenantUsage(fmt.Sprintf("t%d", g%8))
				srv.Unregister(name)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local, want := hostedClientSet(base, g)
			for i := 0; i < 5; i++ {
				res, err := dialSync(addr, "", opt, local)
				if err != nil {
					errCh <- fmt.Errorf("syncer %d: %w", g, err)
					return
				}
				if len(res.Difference) != len(want) {
					errCh <- fmt.Errorf("syncer %d: |diff| = %d, want %d", g, len(res.Difference), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// All churned names released: only the default set remains.
	if n := srv.Stats().SetsHosted; n != 1 {
		t.Fatalf("SetsHosted after churn = %d, want 1", n)
	}
	for g := 0; g < 8; g++ {
		if sets, bytes, sessions := srv.TenantUsage(fmt.Sprintf("t%d", g)); sets != 0 || bytes != 0 || sessions != 0 {
			t.Fatalf("tenant t%d gauges leaked: sets=%d bytes=%d sessions=%d", g, sets, bytes, sessions)
		}
	}
}
