package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pbs"
)

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one run of one workload reports.
type result struct {
	Attempted int
	Failed    int
	Metrics   []metric
	// Counters repeat exactly for a (seed, sync count) pair; the tests
	// compare them across runs.
	WireBytes  int64
	Rounds     int64
	DiffElems  int64
	ColdLoads  int64
	Evictions  int64
	SetupReps  int
	MeasuredS  float64
	TailQ      float64
	Violations []string
}

// runConfig selects one run.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64 // measured-phase length
	syncs   int     // > 0: run exactly this many syncs instead
	trace   bool
	tmpDir  string // parent of hosted data dirs
	outDir  string // span files
	log     func(format string, args ...any)
}

// countConn counts the bytes and the Read/Write calls that cross a client
// connection, frame headers included — the client's side of the ledger the
// run reconciles with Server.Stats() at the end.
type countConn struct {
	net.Conn
	rBytes, wBytes, rCalls, wCalls atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rBytes.Add(int64(n))
	c.rCalls.Add(1)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wBytes.Add(int64(n))
	c.wCalls.Add(1)
	return n, err
}

// client is one closed-loop driver goroutine: its connection and the
// targets it syncs (one, or the whole hosted catalog).
type client struct {
	rng     *rand.Rand
	conn    net.Conn // sequential mode: the warm connection (a *countConn)
	targets []*target

	samples []time.Duration
	rounds  int64
	diffs   int64
	ref     *refKernel

	// writeCosts holds one sample per write: its wall time divided by the
	// elements it wrote, in nanoseconds.
	writeCosts []float64
}

// env is one set-up instance of a workload: a live server on loopback,
// connected and primed clients.
type env struct {
	w         workload
	opt       pbs.Options
	srv       *pbs.Server
	addr      string
	serveDone chan error
	dataDir   string

	counted []*countConn // every dialed client connection
	muxConn *pbs.MuxConn
	clients []*client

	// serverSets holds the server-side element lists by set name, kept for
	// the traced run's in-process rungs.
	serverSets map[string][]uint64
}

// sigBits is the element signature width every workload runs under (the
// protocol default): the information floor is |A△B|·sigBits/8 bytes.
const sigBits = 32

func hostedName(i int) string { return fmt.Sprintf("catalog/set-%03d", i) }

// setUp generates the workload's inputs from seed, starts the server,
// registers or hosts the sets, dials, and runs one untimed priming sync per
// target so lazy sketch, snapshot, partition and connection costs are paid
// before measurement.
func setUp(ctx context.Context, w workload, seed uint64, tmpDir string) (e *env, err error) {
	e = &env{
		w:          w,
		opt:        pbs.Options{Seed: seed ^ 0x9e3779b97f4a7c15},
		serverSets: make(map[string][]uint64),
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	so := pbs.ServerOptions{Protocol: &e.opt}
	if w.hostedSets > 0 {
		if e.dataDir, err = os.MkdirTemp(tmpDir, w.name+"-"); err != nil {
			return nil, err
		}
		so.DataDir = e.dataDir
		// Resident charge per set is 256 + 8 bytes per element (hosted.go).
		so.MaxResidentBytes = int64(w.residentSets) * int64(256+8*(w.setSize+w.poolSize))
	}
	e.srv = pbs.NewServer(so)
	if w.hostedSets > 0 {
		if _, err = e.srv.EnableHosting(); err != nil {
			return nil, err
		}
	}

	gen := rngFor(seed, w, 0)
	setOpts := []pbs.Option{pbs.WithOptions(e.opt)}
	for i := 0; i < w.clients; i++ {
		e.clients = append(e.clients, &client{rng: rngFor(seed, w, uint64(i)+1)})
	}
	if w.hostedSets > 0 {
		c := e.clients[0]
		for i := 0; i < w.hostedSets; i++ {
			name := hostedName(i)
			elems := genDistinct(gen, w.setSize+spareElems(w))
			t, serverSet, err := newTarget(name, elems, w.setSize, w.d0, w.poolSize, setOpts...)
			if err != nil {
				return nil, err
			}
			if err = e.srv.Host(name, serverSet); err != nil {
				return nil, err
			}
			e.serverSets[name] = serverSet
			c.targets = append(c.targets, t)
		}
	} else {
		// One server set; every client differs from it in its own way.
		elems := genDistinct(gen, w.setSize+w.clients*spareElems(w))
		serverSet := elems[:w.setSize]
		for i, c := range e.clients {
			spare := elems[w.setSize+i*spareElems(w) : w.setSize+(i+1)*spareElems(w)]
			mine := append(append(make([]uint64, 0, w.setSize+len(spare)), serverSet...), spare...)
			t, _, err := newTarget("", mine, w.setSize, w.d0, 0, setOpts...)
			if err != nil {
				return nil, err
			}
			c.targets = append(c.targets, t)
		}
		if err = e.srv.Register(pbs.DefaultSetName, serverSet); err != nil {
			return nil, err
		}
		e.serverSets[""] = serverSet
	}

	for _, c := range e.clients {
		c.ref = newRefKernel(e.serverSets[c.targets[0].name])
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()

	if w.mux {
		conn, err := e.dial(ctx)
		if err != nil {
			return nil, err
		}
		e.muxConn = pbs.NewMuxConn(conn)
	} else {
		for _, c := range e.clients {
			if c.conn, err = e.dial(ctx); err != nil {
				return nil, err
			}
		}
	}
	// Priming is sequential: on a MuxConn the first stream's sync carries
	// the negotiation every later stream waits on.
	for _, c := range e.clients {
		for _, t := range c.targets {
			res, _, err := e.sync(ctx, c, t)
			if err == nil {
				err = t.verify(res)
			}
			if err != nil {
				return nil, fmt.Errorf("priming sync of %q: %w", t.name, err)
			}
		}
	}
	if _, err = e.quiesce(0, 0); err != nil {
		return nil, err
	}
	return e, nil
}

// dial opens one counted loopback connection to the server.
func (e *env) dial(ctx context.Context) (*countConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", e.addr)
	if err != nil {
		return nil, err
	}
	conn.(*net.TCPConn).SetNoDelay(true)
	cc := &countConn{Conn: conn}
	e.counted = append(e.counted, cc)
	return cc, nil
}

// sync runs one reconciliation of t the way the workload's clients do —
// over the client's warm connection, or over a fresh stream of the shared
// MuxConn — and returns the wall time of the call.
func (e *env) sync(ctx context.Context, c *client, t *target) (*pbs.Result, time.Duration, error) {
	start := time.Now()
	conn := c.conn
	if e.muxConn != nil {
		st, err := e.muxConn.Stream()
		if err != nil {
			return nil, 0, err
		}
		defer st.Close()
		conn = st
	}
	res, err := t.set.Sync(ctx, conn, t.syncOptions()...)
	return res, time.Since(start), err
}

// wireBytes sums the client-side byte counters over every connection.
func (e *env) wireBytes() (read, written int64) {
	for _, cc := range e.counted {
		read += cc.rBytes.Load()
		written += cc.wBytes.Load()
	}
	return read, written
}

// quiesce waits until the server has finished every session the clients
// completed (a sync returns when the client has written its closing frame,
// which the server may not have read yet) and returns the settled counters.
func (e *env) quiesce(wantCompleted, wantBytesIn int64) (pbs.ServerStats, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.srv.Stats()
		if st.Active == 0 && st.StreamsOpen == 0 && st.Completed >= wantCompleted && st.BytesIn >= wantBytesIn {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("server did not quiesce: active=%d streams=%d completed=%d (want %d)",
				st.Active, st.StreamsOpen, st.Completed, wantCompleted)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (e *env) close() {
	if e.muxConn != nil {
		e.muxConn.Close()
	}
	for _, cc := range e.counted {
		cc.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.serveDone != nil {
		<-e.serveDone
	}
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// write performs the workload's write for client c's n-th iteration and
// picks the target the iteration syncs. written is the target whose ground
// truth the write changed (nil when this iteration writes nothing).
func (e *env) write(c *client, n int) (t, written *target, elapsed time.Duration, err error) {
	w := e.w
	t = c.targets[0]
	switch {
	case w.hostedSets > 0:
		t = c.targets[c.rng.IntN(len(c.targets))]
		if n%w.updateEvery != 0 {
			return t, nil, 0, nil
		}
		written = c.targets[c.rng.IntN(len(c.targets))]
		add, remove := written.pool, []uint64(nil)
		if written.poolIn {
			add, remove = nil, written.pool
		}
		start := time.Now()
		err = e.srv.HostedUpdate(written.name, add, remove)
		elapsed = time.Since(start)
		if err != nil {
			return nil, nil, elapsed, fmt.Errorf("HostedUpdate %q: %w", written.name, err)
		}
		written.togglePool()
		c.writeCosts = append(c.writeCosts, float64(elapsed.Nanoseconds())/float64(len(written.pool)))
	case w.churn > 0:
		written = t
		if elapsed, err = t.churn(c.rng, w.churn, w.d0); err != nil {
			return nil, nil, elapsed, err
		}
		c.writeCosts = append(c.writeCosts, float64(elapsed.Nanoseconds())/float64(w.churn))
	}
	return t, written, elapsed, nil
}

// step is one iteration of the closed loop for client c: the workload's
// write, then a verified sync. n counts this client's iterations.
func (e *env) step(ctx context.Context, c *client, n int) error {
	t, _, _, err := e.write(c, n)
	if err != nil {
		return err
	}
	res, dt, err := e.sync(ctx, c, t)
	if err != nil {
		return fmt.Errorf("sync of %q: %w", t.name, err)
	}
	if err := t.verify(res); err != nil {
		return fmt.Errorf("sync of %q: %w", t.name, err)
	}
	c.samples = append(c.samples, dt)
	c.rounds += int64(res.Rounds)
	c.diffs += int64(len(res.Difference))
	return nil
}

// loop runs the closed loops of all clients until the deadline (or for
// exactly syncs iterations in total, split evenly), and returns the number
// attempted plus the first failure. A failure stops every client: the
// connection state after a failed sync is unknown, and a run with a failure
// is invalid anyway.
func (e *env) loop(ctx context.Context, seconds float64, syncs int) (attempted int, err error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		total   atomic.Int64
		errOnce sync.Once
	)
	for i, c := range e.clients {
		quota := -1
		if syncs > 0 {
			quota = syncs / len(e.clients)
			if i < syncs%len(e.clients) {
				quota++
			}
		}
		wg.Add(1)
		go func(c *client, quota int) {
			defer wg.Done()
			loopStart := time.Now()
			for n := 0; !stop.Load(); n++ {
				if c.ref.due(loopStart) {
					c.ref.run()
				}
				if quota >= 0 && n >= quota || quota < 0 && !time.Now().Before(deadline) {
					return
				}
				total.Add(1)
				if serr := e.step(ctx, c, n); serr != nil {
					errOnce.Do(func() { err = serr })
					stop.Store(true)
					return
				}
			}
		}(c, quota)
	}
	wg.Wait()
	return int(total.Load()), err
}

// measured is the raw outcome of one measured phase.
type measured struct {
	attempted  int
	wall       time.Duration
	cpu        time.Duration
	mem        runtime.MemStats // deltas: TotalAlloc, Mallocs, NumGC, PauseTotalNs
	stats      pbs.ServerStats  // deltas of the counters
	wire       int64
	samples    []time.Duration // sorted
	rounds     int64
	diffs      int64
	writeCosts []float64       // ns per written element, one sample per write
	refs       []time.Duration // reference-kernel wall times, sorted
	refSpent   time.Duration   // their sum
	problems   []string
	// drift is the first client's median sync time over ten consecutive
	// tenths of the phase, printed so a run that sped up or slowed down
	// while it was measured can be told from a steady one.
	drift []float64
}

// windowMedians splits samples, in the order taken, into k consecutive
// windows and returns each window's median in microseconds.
func windowMedians(samples []time.Duration, k int) []float64 {
	var out []float64
	for i := 0; i < k && len(samples) >= k; i++ {
		w := slices.Clone(samples[i*len(samples)/k : (i+1)*len(samples)/k])
		slices.Sort(w)
		out = append(out, us(quantile(w, 0.5)))
	}
	return out
}

// measure runs the closed loops and brackets them with the process-wide
// counters: wall clock, getrusage, heap statistics, the clients' byte
// counters and the server's own statistics. At the end it checks the two
// ends' ledgers against each other.
func (e *env) measure(ctx context.Context, seconds float64, syncs int) (*measured, error) {
	for _, c := range e.clients {
		c.samples, c.writeCosts, c.rounds, c.diffs = c.samples[:0], c.writeCosts[:0], 0, 0
		c.ref.samples, c.ref.spent = c.ref.samples[:0], 0
	}
	base, err := e.quiesce(0, 0)
	if err != nil {
		return nil, err
	}
	r0, w0 := e.wireBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()

	attempted, loopErr := e.loop(ctx, seconds, syncs)

	m := &measured{attempted: attempted, wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	m.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	m.mem.Mallocs = m1.Mallocs - m0.Mallocs
	m.mem.NumGC = m1.NumGC - m0.NumGC
	m.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	for _, c := range e.clients {
		m.samples = append(m.samples, c.samples...)
		m.rounds += c.rounds
		m.diffs += c.diffs
		m.writeCosts = append(m.writeCosts, c.writeCosts...)
		m.refs = append(m.refs, c.ref.samples...)
		m.refSpent += c.ref.spent
	}
	m.drift = windowMedians(e.clients[0].samples, 10)
	slices.Sort(m.samples)
	slices.Sort(m.refs)
	if loopErr != nil {
		return m, loopErr
	}

	r1, w1 := e.wireBytes()
	read, written := r1-r0, w1-w0
	m.wire = read + written
	done := int64(len(m.samples))
	st, err := e.quiesce(base.Completed+done, base.BytesIn+written)
	if err != nil {
		return m, err
	}
	m.stats = st
	m.stats.Completed -= base.Completed
	m.stats.Failed -= base.Failed
	m.stats.Rejected -= base.Rejected
	m.stats.BytesIn -= base.BytesIn
	m.stats.BytesOut -= base.BytesOut
	m.stats.Rounds -= base.Rounds
	m.stats.PriorHits -= base.PriorHits
	m.stats.AdaptiveReplans -= base.AdaptiveReplans
	m.stats.ColdLoads -= base.ColdLoads
	m.stats.Evictions -= base.Evictions

	check := func(ok bool, format string, args ...any) {
		if !ok {
			m.problems = append(m.problems, fmt.Sprintf(format, args...))
		}
	}
	check(m.stats.Completed == done, "server completed %d sessions, clients %d syncs", m.stats.Completed, done)
	check(m.stats.Failed == 0 && m.stats.Rejected == 0, "server counted %d failed, %d rejected sessions", m.stats.Failed, m.stats.Rejected)
	check(m.stats.BytesIn == written, "server read %d bytes, clients wrote %d", m.stats.BytesIn, written)
	check(m.stats.BytesOut == read, "server wrote %d bytes, clients read %d", m.stats.BytesOut, read)
	check(m.stats.Rounds == m.rounds, "server answered %d rounds, clients counted %d", m.stats.Rounds, m.rounds)
	return m, nil
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile lowers q through p99, p98, p95 until at least ten samples
// lie beyond it.
func tailQuantile(q float64, n int) float64 {
	for _, c := range []float64{0.99, 0.98, 0.95} {
		if c <= q && float64(n)*(1-c) >= 10 {
			return c
		}
	}
	return 0.95
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// runWorkload is one whole run: repeated set-up, then either the measured
// phase (end-to-end metrics) or the traced ladder (per-layer metrics).
func runWorkload(cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{}
	if w.clients > runtime.NumCPU() {
		// Load comes from one process with no more client goroutines than
		// processors; a smaller box runs the shape it can.
		w.clients = runtime.NumCPU()
	}
	// One deadline for the whole run: every sync gets a real context (the
	// deadline plumbing is part of what a caller pays) and a wedged sync
	// cannot hang the run.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+90*time.Second)
	defer cancel()

	var (
		e      *env
		setups []float64
	)
	for i := 0; i < max(w.setupReps, 1); i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, w, cfg.seed, cfg.tmpDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	res.SetupReps = len(setups)

	if cfg.trace {
		layers, attempted, err := runLadder(ctx, e, cfg)
		res.Attempted = attempted
		res.Metrics = layers
		if err != nil {
			res.Failed = 1
			res.Violations = append(res.Violations, err.Error())
		}
		return res, nil
	}

	m, err := e.measure(ctx, cfg.seconds, cfg.syncs)
	if m == nil {
		return nil, err
	}
	res.Attempted = m.attempted
	res.Failed = m.attempted - len(m.samples)
	if err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	res.Violations = append(res.Violations, m.problems...)
	res.WireBytes, res.Rounds, res.DiffElems = m.wire, m.rounds, m.diffs
	res.ColdLoads, res.Evictions = m.stats.ColdLoads, m.stats.Evictions
	res.MeasuredS = m.wall.Seconds()
	if len(m.samples) == 0 {
		return res, errors.New("no sync completed")
	}

	cfg.log("sync p50 by tenth of the measured phase (us): %.0f", m.drift)
	n := len(m.samples)
	syncs := float64(n)
	p50 := quantile(m.samples, 0.50)
	res.TailQ = tailQuantile(w.tailQ, n)

	// The reference kernel's time is the harness's own: out of the loop's
	// wall clock (each client spent its share) and out of the CPU time.
	wall := (m.wall - m.refSpent/time.Duration(len(e.clients))).Seconds()
	cpu := m.cpu - m.refSpent
	// speed scales a time measured in this run to reference speed (ref.go).
	speed, refP50 := 1.0, us(quantile(m.refs, 0.50))
	if w.refUs > 0 && refP50 > 0 {
		speed = w.refUs / refP50
	}
	cfg.log("as measured: setup_s %.6g sync_p50_us %.6g syncs_per_s %.6g cpu_us_per_sync %.6g churn_ns_per_elem %.6g",
		median(setups), us(p50), syncs/wall, us(cpu)/syncs, median(m.writeCosts))
	cfg.log("reference kernel p50 %.6g us n=%d, nominal %.6g us: times below are scaled by %.4f to reference speed",
		refP50, len(m.refs), w.refUs, speed)
	res.Metrics = []metric{
		{"setup_s", speed * median(setups), "s", len(setups)},
		{"sync_p50_us", speed * us(p50), "us", n},
		{"sync_tail_x", float64(quantile(m.samples, res.TailQ)) / float64(p50), "ratio", n},
		{"syncs_per_s", syncs / wall / speed, "1/s", n},
		{"cpu_us_per_sync", speed * us(cpu) / syncs, "us", n},
		{"alloc_kb_per_sync", float64(m.mem.TotalAlloc) / 1024 / syncs, "KB", n},
		{"peak_rss_mb", peakRSSMB(), "MB", 1},
		{"wire_bytes_per_sync", float64(m.wire) / syncs, "B", n},
		{"comm_overhead_x", float64(m.wire) / (float64(m.diffs) * sigBits / 8), "ratio", n},
		{"rounds_per_sync", float64(m.rounds) / syncs, "count", n},
		{"churn_ns_per_elem", speed * median(m.writeCosts), "ns", len(m.writeCosts)},
	}
	return res, nil
}
