package pbs

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/chaos"
	"pbs/internal/workload"
)

// fleetRow is one TestFleet case: a fleet of concurrent clients, the
// connections they sync over, and the server they sync against. One seed
// derives the workload, the churn and the fault stream, so a failing row
// replays from the seed its messages name.
type fleetRow struct {
	group, name       string // rows of one shape at several fleet sizes share a group
	workers, syncs    int
	size, diff, churn int
	seed              int64
	opt               Options // protocol options, both sides
	reconnect         bool    // dial per sync instead of one warm connection per worker
	streams           int     // > 1: this many workers share one MuxConn
	faults            chaos.Config
	retry             int // > 0: every sync runs under a RetryPolicy with this many attempts
	server            ServerOptions
	sets              int     // > 0: sync against a hosted catalog of this many sets
	zipf              float64 // hosted rows: the Zipf skew of catalog access
	long              bool    // skipped under -short
}

// soakRow is a fault-injection row: eight reconnecting workers syncing
// under a retry policy through connections that carry faults.
func soakRow(name string, faults chaos.Config) fleetRow {
	return fleetRow{name: name, workers: 8, syncs: 6, size: 1200, diff: 25, churn: 5, seed: 11,
		opt: Options{Seed: 7}, reconnect: true, faults: faults, retry: 6, long: true}
}

var fleetRows = []fleetRow{
	{group: "warm", name: "20workers", workers: 20, syncs: 4, size: 1500, diff: 30, churn: 7, seed: 5, opt: Options{Seed: 99}},
	{group: "warm", name: "500workers", workers: 500, syncs: 2, size: 1500, diff: 30, churn: 7, seed: 5, opt: Options{Seed: 99}, long: true},
	{name: "reconnect", workers: 5, syncs: 3, size: 600, diff: 10, seed: 11, opt: Options{Seed: 3}, reconnect: true},
	{group: "mux", name: "16workers", workers: 16, streams: 4, syncs: 4, size: 1000, diff: 20, churn: 5, seed: 9, opt: Options{Seed: 21}},
	// 500 workers at 32 streams a socket ride 16 sockets, the last one partly filled.
	{group: "mux", name: "500workers", workers: 500, streams: 32, syncs: 2, size: 1000, diff: 20, churn: 5, seed: 9, opt: Options{Seed: 21}, long: true},
	// A 400-element set is charged 3,456 B, so about 5 of the 30 stay resident.
	{name: "hosted", workers: 8, syncs: 6, size: 400, diff: 12, seed: 9, opt: Options{Seed: 17}, sets: 30, zipf: 1.3,
		server: ServerOptions{MaxResidentBytes: 20_000}},
	soakRow("drop", chaos.Config{DropProb: 0.03}),
	soakRow("stall", chaos.Config{StallProb: 0.03, Stall: 50 * time.Millisecond}),
	soakRow("reset", chaos.Config{ResetProb: 0.02}),
	soakRow("corrupt", chaos.Config{CorruptProb: 0.02}),
	soakRow("mixed", chaos.Config{DropProb: 0.03, ResetProb: 0.02, CorruptProb: 0.02, StallProb: 0.03, Stall: 50 * time.Millisecond}),
	// More reconnecting workers than the server admits: the watermark and
	// the hard cap shed the excess with retry-after hints.
	{name: "busy", workers: 8, syncs: 4, size: 1200, diff: 25, seed: 17, opt: Options{Seed: 13}, reconnect: true, retry: 8,
		server: ServerOptions{MaxSessions: 4, SoftSessionWatermark: 3, RetryAfterHint: 20 * time.Millisecond}, long: true},
}

// TestFleet drives every fleet shape against a real Server on loopback:
// warm, reconnecting and multiplexed clients churning their sets, a hosted
// catalog under eviction and across a restart, and seeded connection
// faults and load shedding under a retry policy. Every learned difference
// must equal the ground truth tracked through churn. Once a row quiesces
// the server must hold no session or stream open, and on a fault-free row
// every count the clients kept must equal the server's own.
func TestFleet(t *testing.T) {
	for i := 0; i < len(fleetRows); {
		r := fleetRows[i]
		if r.group == "" {
			t.Run(r.name, r.run)
			i++
			continue
		}
		j := i
		for j < len(fleetRows) && fleetRows[j].group == r.group {
			j++
		}
		rows := fleetRows[i:j]
		t.Run(r.group, func(t *testing.T) {
			for _, r := range rows {
				t.Run(r.name, r.run)
			}
		})
		i = j
	}
}

// run drives one row and, on a fault row, checks that its seed replays
// the same faults.
func (r fleetRow) run(t *testing.T) {
	if r.long && testing.Short() {
		t.Skip("500-worker and fault-injection rows are skipped in -short mode")
	}
	if r.sets > 0 {
		r.driveHosted(t)
		return
	}
	faults := r.drive(t, r.newServer(t))
	if !r.faults.Enabled() {
		return
	}
	if faults == 0 {
		t.Fatalf("seed %d: no fault injected", r.seed)
	}
	// The replay contract: the same seed injects the same faults.
	if again := r.drive(t, r.newServer(t)); again != faults {
		t.Fatalf("seed %d: fault stream did not replay: %d faults, then %d", r.seed, faults, again)
	}
	t.Logf("seed %d: %d faults injected in each of two runs", r.seed, faults)
}

// newServer returns a server for r; on all but hosted rows it serves the B
// side of r's workload as its default set.
func (r fleetRow) newServer(t *testing.T) *Server {
	so := r.server
	so.Protocol = &r.opt
	srv := NewServer(so)
	if r.sets == 0 {
		if err := srv.Register(DefaultSetName, r.pair(t).B); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

func (r fleetRow) pair(t *testing.T) *workload.Pair {
	p, err := workload.Generate(workload.Config{UniverseBits: 32, SizeA: r.size, D: r.diff, Seed: r.seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// driveHosted hosts a catalog under a resident cap that forces evictions
// and drives the fleet against it, then restarts on the same DataDir and
// drives it again against the recovered catalog, every set cold.
func (r fleetRow) driveHosted(t *testing.T) {
	r.server.DataDir = t.TempDir()
	start := func() (*Server, int) {
		srv := r.newServer(t)
		recovered, err := srv.EnableHosting()
		if err != nil {
			t.Fatal(err)
		}
		return srv, recovered
	}
	srv, _ := start()
	for i := range r.sets {
		if err := srv.Host(workload.ManySetName(i), workload.ManySet(r.seed, i, r.size)); err != nil {
			t.Fatal(err)
		}
	}
	r.drive(t, srv)
	st := srv.Stats()
	if st.SetsHosted != int64(r.sets) || st.Evictions == 0 || st.ColdLoads == 0 {
		t.Fatalf("seed %d: %d sets hosted, %d evictions, %d cold loads: want %d sets and the eviction machinery cycling",
			r.seed, st.SetsHosted, st.Evictions, st.ColdLoads, r.sets)
	}
	if limit := r.server.MaxResidentBytes + int64(r.size*8+256); st.ResidentBytes > limit {
		t.Fatalf("seed %d: %d B resident, over the cap plus one set (%d B)", r.seed, st.ResidentBytes, limit)
	}

	srv, recovered := start()
	if st := srv.Stats(); recovered != r.sets || st.SetsResident != 0 {
		t.Fatalf("seed %d: restart recovered %d of %d sets, %d resident; want all of them, cold",
			r.seed, recovered, r.sets, st.SetsResident)
	}
	r.drive(t, srv)
	if st := srv.Stats(); st.ColdLoads == 0 {
		t.Fatalf("seed %d: no cold loads after restart: the recovered catalog was never read from disk", r.seed)
	}
}

// drive serves srv on loopback, runs r's fleet against it, checks the
// invariants every row ends in once the server quiesces, and stops the
// server. It returns the number of faults the fleet's connections injected.
func (r fleetRow) drive(t *testing.T, srv *Server) int64 {
	t.Helper()
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

	r.faults.Seed = r.seed
	f := &fleet{fleetRow: r, t: t, addr: ln.Addr().String()}
	f.run()
	st := f.quiesce(srv)
	if st.Active != 0 || st.StreamsOpen != 0 {
		f.fatalf("server holds %d sessions and %d streams open after the fleet quiesced", st.Active, st.StreamsOpen)
	}
	// workload.ManySetName names every catalog set under tenant "bench".
	if _, _, sessions := srv.TenantUsage("bench"); r.sets > 0 && sessions != 0 {
		f.fatalf("tenant usage holds %d sessions after the fleet quiesced", sessions)
	}
	if r.retry == 0 {
		f.account(st)
	}
	if r.server.SoftSessionWatermark > 0 && st.Rejected == 0 {
		f.fatalf("overloaded server shed nothing")
	}
	return f.injected.Load()
}

// fleet is one run of a row's workers against one server.
type fleet struct {
	fleetRow
	t     *testing.T
	addr  string
	muxes []*MuxConn

	read, written  atomic.Int64 // client wire bytes, counted beneath any fault injector
	synced, rounds atomic.Int64 // verified syncs and their rounds
	injected       atomic.Int64 // faults the chaos wrappers injected
}

func (f *fleet) errorf(format string, args ...any) {
	f.t.Helper()
	f.t.Errorf("seed %d: %s", f.seed, fmt.Sprintf(format, args...))
}

func (f *fleet) fatalf(format string, args ...any) {
	f.t.Helper()
	f.t.Fatalf("seed %d: %s", f.seed, fmt.Sprintf(format, args...))
}

// fleetWorker is one client: a Set it reuses across syncs, and the exact
// difference it must learn from the server. Hosted rows instead model a
// fresh client per sync, which is what drives cold loads and evictions.
type fleetWorker struct {
	id     int
	rng    *rand.Rand
	set    *Set
	name   string              // hosted rows: the catalog set this sync targets
	expect map[uint64]struct{} // ground truth: the local set △ the server's
	owned  []uint64            // elements churn may remove
	parked []uint64            // elements churn removed and restores next
	zipf   *rand.Zipf          // hosted rows: the catalog access pattern
	conn   net.Conn            // warm rows: held across syncs
	dials  uint64              // connections opened with faults
}

// run drives every worker through its syncs and, on rows with a retry
// policy, through one convergence sync over a clean connection.
func (f *fleet) run() {
	var pair *workload.Pair
	if f.sets == 0 {
		pair = f.pair(f.t)
	}
	workers := make([]*fleetWorker, f.workers)
	for i := range workers {
		w := &fleetWorker{id: i, rng: rand.New(rand.NewSource(f.seed ^ int64(uint64(i)*0x9E3779B97F4A7C15)))}
		if f.sets > 0 {
			w.zipf = rand.NewZipf(w.rng, f.zipf, 1, uint64(f.sets-1))
		} else {
			set, err := NewSet(pair.A, WithOptions(f.opt))
			if err != nil {
				f.fatalf("%v", err)
			}
			w.set, w.owned, w.expect = set, slices.Clone(pair.A), map[uint64]struct{}{}
			w.toggle(pair.Diff)
		}
		workers[i] = w
	}
	defer func() {
		for _, m := range f.muxes {
			m.Close()
		}
	}()
	if f.streams > 1 {
		for range (f.workers + f.streams - 1) / f.streams {
			conn, err := f.dial(context.Background(), nil, true)
			if err != nil {
				f.fatalf("dial: %v", err)
			}
			f.muxes = append(f.muxes, NewMuxConn(conn))
		}
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range f.syncs {
				f.step(w, n)
			}
			if w.conn != nil {
				w.conn.Close()
			}
		}()
	}
	wg.Wait()
	if f.retry == 0 {
		return
	}
	// Under faults or shedding a failed sync is an expected casualty, but
	// once they stop every worker must reach the exact difference.
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.sync(w, true)
			if err == nil {
				err = w.verify(res.Difference)
			}
			if err != nil {
				f.errorf("worker %d unreconciled: %v", w.id, err)
			}
		}()
	}
	wg.Wait()
}

// step prepares worker w's nth sync (churn, or the next catalog set on
// hosted rows), runs it and verifies what it learned.
func (f *fleet) step(w *fleetWorker, n int) {
	var err error
	if f.sets > 0 {
		err = f.pick(w)
	} else if n > 0 {
		err = w.churn(f.churn)
	}
	if err != nil {
		f.errorf("worker %d sync %d: %v", w.id, n, err)
		return
	}
	res, err := f.sync(w, false)
	if err != nil {
		if f.retry == 0 {
			f.errorf("worker %d sync %d: %v", w.id, n, err)
		}
		return
	}
	if err := w.verify(res.Difference); err != nil {
		f.errorf("worker %d sync %d: %v", w.id, n, err)
		return
	}
	f.synced.Add(1)
	f.rounds.Add(int64(res.Rounds))
}

// sync runs one reconciliation of w in the row's connection shape; clean
// selects a fault-free connection. An incomplete result is an error.
func (f *fleet) sync(w *fleetWorker, clean bool) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		res  *Result
		err  error
		opts = []Option{WithSetName(w.name)}
	)
	switch {
	case f.retry > 0:
		res, err = w.set.Sync(ctx, nil, append(opts, WithRetry(RetryPolicy{
			MaxAttempts: f.retry,
			Dial:        func(ctx context.Context) (net.Conn, error) { return f.dial(ctx, w, clean) },
		}))...)
	case f.streams > 1:
		var st *MuxStream
		if st, err = f.muxes[w.id/f.streams].Stream(); err == nil {
			res, err = w.set.Sync(ctx, st, opts...)
			st.Close()
		}
	default:
		if w.conn == nil {
			w.conn, err = f.dial(ctx, w, clean)
		}
		if err == nil {
			res, err = w.set.Sync(ctx, w.conn, opts...)
		}
		if w.conn != nil && (f.reconnect || err != nil) {
			w.conn.Close()
			w.conn = nil
		}
	}
	if err == nil && !res.Complete {
		err = fmt.Errorf("incomplete after %d rounds", res.Rounds)
	}
	return res, err
}

// dial opens one client connection. Its wire bytes are counted beneath
// the fault injector, so they are the bytes the server's counters see.
// Unless clean, the row's faults wrap it under the per-dial id
// worker·1_000_003 + dial, so the same seed replays the same faults.
func (f *fleet) dial(ctx context.Context, w *fleetWorker, clean bool) (net.Conn, error) {
	c, err := new(net.Dialer).DialContext(ctx, "tcp", f.addr)
	if err != nil {
		return nil, err
	}
	conn := net.Conn(fleetConn{Conn: c, f: f})
	if clean || !f.faults.Enabled() {
		return conn, nil
	}
	w.dials++
	faults := f.faults
	faults.OnFault = func(chaos.Event) { f.injected.Add(1) }
	return chaos.Wrap(conn, faults, uint64(w.id)*1_000_003+w.dials), nil
}

// fleetConn counts a client connection's wire bytes into its fleet.
type fleetConn struct {
	net.Conn
	f *fleet
}

func (c fleetConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.f.read.Add(int64(n))
	return n, err
}

func (c fleetConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.f.written.Add(int64(n))
	return n, err
}

// quiesce polls until the server holds no session or stream open and, on
// a fault-free row, has booked every sync (a client returns a beat before
// the server reads its msgDone), and returns the settled stats.
func (f *fleet) quiesce(srv *Server) ServerStats {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		settled := st.Active == 0 && st.StreamsOpen == 0 && (f.retry > 0 || st.Completed == f.synced.Load())
		if settled || time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// account checks a fault-free row's exact accounting: every count the
// clients kept equals the server's own.
func (f *fleet) account(st ServerStats) {
	syncs := int64(f.workers * f.syncs)
	accepted, streams := int64(f.workers), int64(0) // warm: one connection per worker
	switch {
	case f.streams > 1:
		accepted, streams = int64(len(f.muxes)), syncs
	case f.reconnect:
		accepted = syncs
	}
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"verified client syncs", f.synced.Load(), syncs},
		{"Completed", st.Completed, syncs},
		{"Failed", st.Failed, 0},
		{"Rejected", st.Rejected, 0},
		{"BytesIn against client bytes written", st.BytesIn, f.written.Load()},
		{"BytesOut against client bytes read", st.BytesOut, f.read.Load()},
		{"Rounds against client rounds", st.Rounds, f.rounds.Load()},
		{"LatencyUS.Count", st.LatencyUS.Count, syncs},
		{"SessionRounds.Count", st.SessionRounds.Count, syncs},
		{"SessionBytes.Count", st.SessionBytes.Count, syncs},
		{"SessionRounds.Sum against Rounds", st.SessionRounds.Sum, st.Rounds},
		{"SessionBytes.Sum against BytesIn+BytesOut", st.SessionBytes.Sum, st.BytesIn + st.BytesOut},
		{"Accepted", st.Accepted, accepted},
		{"StreamsTotal", st.StreamsTotal, streams},
	} {
		if c.got != c.want {
			f.errorf("%s: %d, want %d", c.what, c.got, c.want)
		}
	}
}

// pick points w at its next catalog set: a fresh client holding the set
// minus its first diff elements, which are then the exact difference.
func (f *fleet) pick(w *fleetWorker) error {
	idx := int(w.zipf.Uint64())
	full := workload.ManySet(f.seed, idx, f.size)
	set, err := NewSet(full[f.diff:], WithOptions(f.opt))
	if err != nil {
		return err
	}
	w.set, w.name, w.expect = set, workload.ManySetName(idx), map[uint64]struct{}{}
	w.toggle(full[:f.diff])
	return nil
}

// churn toggles k elements through the Set's incremental path: one cycle
// removes k random owned elements, the next adds them back, so the
// difference oscillates between diff and diff+k.
func (w *fleetWorker) churn(k int) error {
	if len(w.parked) > 0 {
		if _, err := w.set.Add(w.parked...); err != nil {
			return err
		}
		w.owned = append(w.owned, w.parked...)
		w.toggle(w.parked)
		w.parked = w.parked[:0]
		return nil
	}
	for range k {
		i := w.rng.Intn(len(w.owned))
		w.parked = append(w.parked, w.owned[i])
		w.owned[i] = w.owned[len(w.owned)-1]
		w.owned = w.owned[:len(w.owned)-1]
	}
	w.set.Remove(w.parked...)
	w.toggle(w.parked)
	return nil
}

// toggle flips each element's membership in the expected difference: the
// server's set never changes, so every local toggle toggles it in A△B.
func (w *fleetWorker) toggle(xs []uint64) {
	for _, x := range xs {
		if _, ok := w.expect[x]; ok {
			delete(w.expect, x)
		} else {
			w.expect[x] = struct{}{}
		}
	}
}

func (w *fleetWorker) verify(diff []uint64) error {
	if len(diff) != len(w.expect) {
		return fmt.Errorf("learned %d elements, ground truth has %d", len(diff), len(w.expect))
	}
	for _, x := range diff {
		if _, ok := w.expect[x]; !ok {
			return fmt.Errorf("learned %#x, which is not in the ground truth", x)
		}
	}
	return nil
}
