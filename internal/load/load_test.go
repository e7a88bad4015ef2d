package load

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"pbs"
	"pbs/internal/workload"
)

// startServer serves the B side of cfg's workload on a loopback listener
// and returns the server for stats inspection.
func startServer(t *testing.T, cfg Config, srvOpt pbs.ServerOptions) (*pbs.Server, string) {
	t.Helper()
	elems, err := ServerSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var popt pbs.Options
	if srvOpt.Protocol != nil {
		popt = *srvOpt.Protocol
	}
	set, err := pbs.NewSet(elems, pbs.WithOptions(popt))
	if err != nil {
		t.Fatal(err)
	}
	srv := pbs.NewServer(srvOpt)
	if err := srv.RegisterSet(pbs.DefaultSetName, set); err != nil {
		t.Fatal(err)
	}
	addr, _ := serve(t, srv)
	return srv, addr
}

// serve runs srv on a loopback listener until the returned stop (or the
// test's cleanup, whichever comes first) closes it.
func serve(t *testing.T, srv *pbs.Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			srv.Close()
			if err := <-serveErr; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// waitStats polls until the server has accounted every completed session
// (the client returns a beat before the server books the msgDone).
func waitStats(t *testing.T, srv *pbs.Server, completed int64) pbs.ServerStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if (st.Completed == completed && st.Active == 0) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunReconcilesWithServerStats is the loadgen-vs-server accounting
// test: a deterministic run whose client-observed counts — sessions,
// rounds, and wire bytes in both directions — must match the server's own
// counters and histograms exactly. Run under -race this also exercises
// many concurrent warm sessions against one live Set; the 500-worker case
// is the concurrent-session scale no bench/ workload drives.
func TestRunReconcilesWithServerStats(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, syncs int
	}{
		{"20workers", 20, 4},
		{"500workers", 500, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.workers > 100 && testing.Short() {
				t.Skip("fleet-scale run skipped in -short mode")
			}
			opt := &pbs.Options{Seed: 99}
			cfg := Config{
				Workers:        tc.workers,
				SyncsPerWorker: tc.syncs,
				SetSize:        1500,
				DiffSize:       30,
				Churn:          7,
				Seed:           5,
				Verify:         true,
				Options:        opt,
			}
			srv, addr := startServer(t, cfg, pbs.ServerOptions{Protocol: opt, MaxSessions: 2 * cfg.Workers})
			cfg.Addr = addr

			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run: %v (first error: %s)", err, rep.FirstError)
			}
			wantSyncs := int64(cfg.Workers * cfg.SyncsPerWorker)
			if rep.Syncs != wantSyncs || rep.Errors != 0 {
				t.Fatalf("syncs=%d errors=%d (first: %s), want %d/0", rep.Syncs, rep.Errors, rep.FirstError, wantSyncs)
			}
			if rep.LatencyUS.Count != wantSyncs {
				t.Fatalf("latency count %d, want %d", rep.LatencyUS.Count, wantSyncs)
			}
			if rep.LatencyUS.P50 > rep.LatencyUS.P95 || rep.LatencyUS.P95 > rep.LatencyUS.P99 ||
				rep.LatencyUS.P99 > float64(rep.LatencyUS.Max) {
				t.Fatalf("latency quantiles not monotone: %+v", rep.LatencyUS)
			}

			st := waitStats(t, srv, wantSyncs)

			// Client-observed counts must reconcile exactly with the server's.
			if st.Completed != wantSyncs {
				t.Fatalf("server completed %d, want %d (failed=%d rejected=%d)",
					st.Completed, wantSyncs, st.Failed, st.Rejected)
			}
			if st.Failed != 0 || st.Rejected != 0 || st.Active != 0 {
				t.Fatalf("server failed=%d rejected=%d active=%d, want clean", st.Failed, st.Rejected, st.Active)
			}
			if st.Rounds != rep.Rounds {
				t.Fatalf("server rounds %d != client rounds %d", st.Rounds, rep.Rounds)
			}
			if st.BytesIn != rep.BytesWritten {
				t.Fatalf("server BytesIn %d != client bytes written %d", st.BytesIn, rep.BytesWritten)
			}
			if st.BytesOut != rep.BytesRead {
				t.Fatalf("server BytesOut %d != client bytes read %d", st.BytesOut, rep.BytesRead)
			}

			// Every completed session must be in the server histograms, and the
			// byte histogram must account every wire byte of the run.
			if st.LatencyUS.Count != wantSyncs || st.SessionRounds.Count != wantSyncs ||
				st.SessionBytes.Count != wantSyncs {
				t.Fatalf("histogram counts %d/%d/%d, want %d", st.LatencyUS.Count,
					st.SessionRounds.Count, st.SessionBytes.Count, wantSyncs)
			}
			if st.SessionBytes.Sum != st.BytesIn+st.BytesOut {
				t.Fatalf("SessionBytes.Sum %d != BytesIn+BytesOut %d",
					st.SessionBytes.Sum, st.BytesIn+st.BytesOut)
			}
			if st.SessionRounds.Sum != st.Rounds {
				t.Fatalf("SessionRounds.Sum %d != Rounds %d", st.SessionRounds.Sum, st.Rounds)
			}

			// Warm connections: one dial per worker, however many syncs.
			if st.Accepted != int64(cfg.Workers) {
				t.Fatalf("server accepted %d connections, want %d (warm reuse)", st.Accepted, cfg.Workers)
			}

			// The verified differences oscillate between DiffSize and
			// DiffSize+Churn under the parked-churn model.
			min := int64(cfg.DiffSize * cfg.Workers * cfg.SyncsPerWorker)
			max := int64((cfg.DiffSize + cfg.Churn) * cfg.Workers * cfg.SyncsPerWorker)
			if rep.DiffElements < min || rep.DiffElements > max {
				t.Fatalf("total diff elements %d outside [%d, %d]", rep.DiffElements, min, max)
			}
		})
	}
}

// TestRunReconnectMode covers the cold-client shape: every sync dials a
// fresh connection, so the server sees exactly one session per accepted
// connection.
func TestRunReconnectMode(t *testing.T) {
	opt := &pbs.Options{Seed: 3}
	cfg := Config{
		Workers:        5,
		SyncsPerWorker: 3,
		SetSize:        600,
		DiffSize:       10,
		Seed:           11,
		Reconnect:      true,
		Verify:         true,
		Options:        opt,
	}
	srv, addr := startServer(t, cfg, pbs.ServerOptions{Protocol: opt})
	cfg.Addr = addr

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(cfg.Workers * cfg.SyncsPerWorker)
	if rep.Syncs != want || rep.Errors != 0 {
		t.Fatalf("syncs=%d errors=%d (first: %s), want %d/0", rep.Syncs, rep.Errors, rep.FirstError, want)
	}
	st := waitStats(t, srv, want)
	if st.Completed != want {
		t.Fatalf("server completed %d, want %d", st.Completed, want)
	}
	if st.Accepted != want {
		t.Fatalf("server accepted %d connections, want %d (one per sync)", st.Accepted, want)
	}
}

// TestRunOpenLoopRate checks the open-loop pacer: a low target rate must
// throttle a fleet that could go much faster.
func TestRunOpenLoopRate(t *testing.T) {
	opt := &pbs.Options{Seed: 8}
	cfg := Config{
		Workers:  4,
		Duration: 1200 * time.Millisecond,
		SetSize:  300,
		DiffSize: 5,
		Seed:     2,
		Rate:     20, // ~24 tokens over the run, far below closed-loop capacity
		Options:  opt,
	}
	_, addr := startServer(t, cfg, pbs.ServerOptions{Protocol: opt})
	cfg.Addr = addr

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v (first error: %s)", err, rep.FirstError)
	}
	// Generous upper bound: the pacer must keep throughput near the target
	// rate, nowhere near what 4 unthrottled workers sustain (hundreds/s).
	if rep.SyncsPerSec > 2.5*cfg.Rate {
		t.Fatalf("open loop did not pace: %.1f syncs/s against a target of %.1f", rep.SyncsPerSec, cfg.Rate)
	}
	if rep.Syncs == 0 {
		t.Fatal("no syncs completed")
	}
}

// TestRunMuxMode covers the shared-connection shape: MuxStreams workers
// multiplex their syncs over each dialed socket, and the client-observed
// wire bytes must still reconcile exactly with the server's counters —
// the envelope overhead is on the wire, so both sides count it alike. The
// 500-worker case rides 16 sockets, the last one partly filled.
func TestRunMuxMode(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		workers, streams, syncs int
	}{
		{"16workers", 16, 4, 4},
		{"500workers", 500, 32, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.workers > 100 && testing.Short() {
				t.Skip("fleet-scale run skipped in -short mode")
			}
			opt := &pbs.Options{Seed: 21}
			cfg := Config{
				Workers:        tc.workers,
				SyncsPerWorker: tc.syncs,
				SetSize:        1000,
				DiffSize:       20,
				Churn:          5,
				Seed:           9,
				MuxStreams:     tc.streams,
				Verify:         true,
				Options:        opt,
			}
			srv, addr := startServer(t, cfg, pbs.ServerOptions{Protocol: opt, MaxSessions: 2 * cfg.Workers})
			cfg.Addr = addr

			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run: %v (first error: %s)", err, rep.FirstError)
			}
			want := int64(cfg.Workers * cfg.SyncsPerWorker)
			if rep.Syncs != want || rep.Errors != 0 {
				t.Fatalf("syncs=%d errors=%d (first: %s), want %d/0", rep.Syncs, rep.Errors, rep.FirstError, want)
			}
			conns := (cfg.Workers + cfg.MuxStreams - 1) / cfg.MuxStreams
			if rep.MuxStreams != cfg.MuxStreams || rep.MuxConns != conns {
				t.Fatalf("report mux shape %d/%d, want %d streams over %d conns",
					rep.MuxStreams, rep.MuxConns, cfg.MuxStreams, conns)
			}

			st := waitStats(t, srv, want)
			if st.Completed != want || st.Failed != 0 || st.Rejected != 0 || st.Active != 0 {
				t.Fatalf("server completed=%d failed=%d rejected=%d active=%d, want %d/0/0/0",
					st.Completed, st.Failed, st.Rejected, st.Active, want)
			}
			if st.StreamsTotal != want {
				t.Fatalf("server StreamsTotal %d, want %d (one stream per sync)", st.StreamsTotal, want)
			}
			if st.Accepted != int64(conns) {
				t.Fatalf("server accepted %d connections, want %d (one socket per group)", st.Accepted, conns)
			}
			if st.BytesIn != rep.BytesWritten {
				t.Fatalf("server BytesIn %d != client bytes written %d", st.BytesIn, rep.BytesWritten)
			}
			if st.BytesOut != rep.BytesRead {
				t.Fatalf("server BytesOut %d != client bytes read %d", st.BytesOut, rep.BytesRead)
			}
			if st.LatencyUS.Count != want || st.SessionRounds.Count != want || st.SessionBytes.Count != want {
				t.Fatalf("histogram counts %d/%d/%d, want %d", st.LatencyUS.Count,
					st.SessionRounds.Count, st.SessionBytes.Count, want)
			}
		})
	}
}

// TestRunBadAddress must fail loudly, not hang or report an empty success.
func TestRunBadAddress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := Run(ctx, Config{
		Addr:           "127.0.0.1:1", // nothing listens here
		Workers:        2,
		SyncsPerWorker: 1,
		SetSize:        100,
		DiffSize:       5,
	})
	if err == nil {
		t.Fatal("Run against a dead address succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},                                     // no address
		{Addr: "x", Workers: -1},               // negative workers
		{Addr: "x", SetSize: 10, DiffSize: 20}, // diff > size
		{Addr: "x", Rate: -1},                  // negative rate
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestRunRetriesIdleDroppedWarmConn pins the open-loop/warm-connection
// interaction: a server is entitled to idle-drop a warm connection while
// a slowly-paced worker sits between syncs, and the worker must redial
// transparently instead of reporting the healthy server as failing.
func TestRunRetriesIdleDroppedWarmConn(t *testing.T) {
	opt := &pbs.Options{Seed: 12}
	cfg := Config{
		Workers:        2,
		SyncsPerWorker: 2,
		SetSize:        300,
		DiffSize:       5,
		Seed:           4,
		Rate:           4, // ~500ms between one worker's syncs
		Verify:         true,
		Options:        opt,
	}
	// Idle-drop warm connections far sooner than the pacing gap.
	srv, addr := startServer(t, cfg, pbs.ServerOptions{
		Protocol:    opt,
		IdleTimeout: 100 * time.Millisecond,
	})
	cfg.Addr = addr

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v (first error: %s)", err, rep.FirstError)
	}
	want := int64(cfg.Workers * cfg.SyncsPerWorker)
	if rep.Syncs != want || rep.Errors != 0 {
		t.Fatalf("syncs=%d errors=%d (first: %s), want %d/0",
			rep.Syncs, rep.Errors, rep.FirstError, want)
	}
	st := waitStats(t, srv, want)
	if st.Completed != want {
		t.Fatalf("server completed %d, want %d", st.Completed, want)
	}
}

// TestManySetsRun drives the many-sets mode end to end against a hosting
// server with a resident cap small enough to force evictions: 30 hosted
// sets, a fleet syncing random (zipf-skewed) catalog entries with
// verification on, and every sync must reconcile exactly DiffSize
// elements even when the target set is cold. A restarted server on the
// same DataDir must then recover the whole catalog and serve it, all cold,
// just as exactly.
func TestManySetsRun(t *testing.T) {
	opt := &pbs.Options{Seed: 17}
	cfg := Config{
		Workers:        8,
		SyncsPerWorker: 6,
		SetSize:        400,
		DiffSize:       12,
		Seed:           9,
		Sets:           30,
		ZipfS:          1.3,
		Verify:         true,
		Options:        opt,
	}
	dir := t.TempDir()
	newServer := func() (*pbs.Server, int) {
		srv := pbs.NewServer(pbs.ServerOptions{
			Protocol:         opt,
			DataDir:          dir,
			MaxResidentBytes: 20_000, // ~5 of 30 sets resident
		})
		recovered, err := srv.EnableHosting()
		if err != nil {
			t.Fatal(err)
		}
		return srv, recovered
	}
	runVerified := func(addr string) {
		t.Helper()
		cfg.Addr = addr
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("%d sync errors, first: %s", rep.Errors, rep.FirstError)
		}
		if want := int64(cfg.Workers * cfg.SyncsPerWorker); rep.Syncs != want {
			t.Fatalf("syncs = %d, want %d", rep.Syncs, want)
		}
		if want := rep.Syncs * int64(cfg.DiffSize); rep.DiffElements != want {
			t.Fatalf("diff elements = %d, want %d", rep.DiffElements, want)
		}
	}

	srv, _ := newServer()
	for i := 0; i < cfg.Sets; i++ {
		if err := srv.Host(workload.ManySetName(i), workload.ManySet(cfg.Seed, i, cfg.SetSize)); err != nil {
			t.Fatal(err)
		}
	}
	addr, stop := serve(t, srv)
	runVerified(addr)
	st := srv.Stats()
	if st.SetsHosted != int64(cfg.Sets) {
		t.Fatalf("SetsHosted = %d, want %d", st.SetsHosted, cfg.Sets)
	}
	if st.Evictions == 0 || st.ColdLoads == 0 {
		t.Fatalf("eviction machinery idle: evictions=%d coldLoads=%d", st.Evictions, st.ColdLoads)
	}
	if st.ResidentBytes > 20_000+int64(cfg.SetSize*8+256) {
		t.Fatalf("resident bytes %d far above cap", st.ResidentBytes)
	}
	stop()

	// Restart: the catalog comes back from the DataDir alone, every set
	// cold, and syncs against it must still reconcile exactly.
	srv, recovered := newServer()
	if recovered != cfg.Sets {
		t.Fatalf("restart recovered %d sets, want %d", recovered, cfg.Sets)
	}
	addr, _ = serve(t, srv)
	runVerified(addr)
	if st := srv.Stats(); st.ColdLoads == 0 {
		t.Fatal("no cold loads after restart: the recovered catalog was never read from disk")
	}
}

// TestManySetsValidate pins the config rules of many-sets mode.
func TestManySetsValidate(t *testing.T) {
	base := Config{Addr: "x", Sets: 10}
	for _, bad := range []Config{
		{Addr: "x", Sets: -1},
		{Addr: "x", Sets: 10, SetName: "named"},
		{Addr: "x", Sets: 10, Churn: 5},
		{Addr: "x", ZipfS: 1.5},
		{Addr: "x", Sets: 10, ZipfS: 0.9},
	} {
		if err := bad.withDefaults().validate(); err == nil {
			t.Errorf("config %+v validated; want error", bad)
		}
	}
	if err := base.withDefaults().validate(); err != nil {
		t.Errorf("base many-sets config rejected: %v", err)
	}
}
