// Package load drives a pbs server with a fleet of concurrent warm
// clients and measures what it sustains: syncs/s, bytes/s, and the
// client-observed sync latency distribution. It is the capacity-
// measurement layer behind cmd/pbs-loadgen and the CI load smoke.
//
// Each worker holds a long-lived pbs.Set built once from the A side of a
// synthetic workload (the server serves the B side of the same workload,
// as pbs-serve -demo-* does) and reconciles it repeatedly: closed-loop
// (back to back, the saturation measurement) or open-loop against a
// target arrival rate. Between syncs a worker can churn its set through
// the incremental Add/Remove path — the mutation pattern a live
// deployment sees — and either hold one warm connection across syncs or
// redial for every sync. Every worker counts its own wire bytes through
// the connection, so a run's client-side totals are exactly reconcilable
// with the server's BytesIn/BytesOut counters.
package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pbs"
	"pbs/internal/chaos"
	"pbs/internal/hist"
	"pbs/internal/workload"
)

// Config parameterizes one load run against a running server.
type Config struct {
	// Addr is the server's host:port.
	Addr string
	// SetName addresses a named registry set ("" = the server default).
	SetName string

	// Workers is the number of concurrent clients (default 1). Closed-loop,
	// every worker keeps exactly one sync in flight, so Workers is also the
	// concurrent-session count the server sustains.
	Workers int
	// Duration bounds the run (default 10s). Ignored when SyncsPerWorker
	// is set.
	Duration time.Duration
	// SyncsPerWorker, when > 0, runs exactly this many syncs per worker
	// instead of a timed run — the deterministic mode tests use.
	SyncsPerWorker int

	// SetSize is |A|, the per-client set size (default 10000). The server
	// must serve the B side of the same workload: |B| = SetSize - DiffSize.
	SetSize int
	// DiffSize is the initial per-client difference |A△B| (default 100).
	DiffSize int
	// Churn is the number of elements toggled between consecutive syncs
	// through the Set's incremental Add/Remove path: each cycle removes
	// Churn random owned elements, the next re-adds them, so the measured
	// difference oscillates in [DiffSize, DiffSize+Churn] and stays
	// stationary over a long run.
	Churn int
	// Seed derives the workload; it must match the server's workload seed
	// (pbs-serve -demo-seed) for the sets to actually differ by DiffSize.
	Seed int64

	// Sets, when > 0, switches the run to many-sets mode: instead of every
	// worker syncing one default set, each sync targets a named hosted set
	// drawn from a catalog of Sets deterministic sets (workload.ManySet,
	// named by workload.ManySetName). The server must host the same catalog
	// (pbs-serve -host-sets with a matching -demo-seed and a -host-size
	// equal to SetSize). The client side holds the set minus its first
	// DiffSize elements, so every sync reconciles exactly DiffSize
	// elements. Incompatible with SetName and Churn.
	Sets int
	// ZipfS skews the many-sets access pattern: set indexes are drawn from
	// a Zipf distribution with parameter s (> 1), so a few sets stay hot
	// while the long tail goes cold — the access shape that exercises the
	// server's residency/eviction machinery. 0 selects uniform access.
	ZipfS float64

	// Rate is the open-loop target arrival rate in syncs/s across all
	// workers; 0 selects closed-loop (every worker syncs back to back).
	Rate float64
	// MuxStreams, when > 1, shares dialed connections N-ways: workers are
	// partitioned into groups of MuxStreams, each group multiplexes its
	// syncs as concurrent streams over one negotiated connection, and a
	// run of W workers holds only ceil(W/MuxStreams) sockets. Requires a
	// server that grants multiplexing (protocol version 2).
	MuxStreams int
	// Compress offers lz frame compression during mux negotiation (only
	// meaningful with MuxStreams > 1; the server may decline).
	Compress bool
	// Reconnect dials a fresh connection for every sync (the cold-client
	// shape). Default false: each worker holds one warm connection and the
	// server carries its sessions in sequence.
	Reconnect bool
	// SyncTimeout bounds a single sync (default 30s).
	SyncTimeout time.Duration
	// Verify checks every learned difference against the exact expected
	// set (ground truth tracked through churn) and counts mismatches as
	// errors. Costs O(d) per sync.
	Verify bool
	// LegacySync disables the single-RTT fast path and measures the
	// multi-RTT protocol-0 flow (the pre-fast-path baseline shape).
	LegacySync bool

	// Chaos, when enabled, wraps every client connection in the seeded
	// fault injector: drops, resets, corruption, stalls, latency, and
	// bandwidth shaping per chaos.Config. Per-connection seeds derive
	// deterministically from Chaos.Seed, the worker id, and the worker's
	// dial count, so a run's fault pattern is reproducible. Chaos.OnFault
	// is overridden by the run's own fault counter.
	Chaos chaos.Config
	// Retry syncs under a pbs.RetryPolicy (redial per attempt, exponential
	// backoff, retry-after hints honored) — the resilient-client shape a
	// chaos run measures. Sync errors then mean the retry budget was
	// exhausted, not a single connection failure.
	Retry bool
	// RetryAttempts overrides the retry policy's attempt budget
	// (0 = the pbs default).
	RetryAttempts int

	// Options is the protocol configuration; it must match the server's.
	Options *pbs.Options
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.SetSize == 0 {
		c.SetSize = 10000
	}
	if c.DiffSize == 0 {
		c.DiffSize = 100
	}
	if c.SyncTimeout == 0 {
		c.SyncTimeout = 30 * time.Second
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Addr == "":
		return fmt.Errorf("load: no server address")
	case c.Workers < 0 || c.SetSize < 0 || c.DiffSize < 0 || c.Churn < 0:
		return fmt.Errorf("load: negative workers/size/diff/churn")
	case c.DiffSize > c.SetSize:
		return fmt.Errorf("load: diff %d exceeds set size %d", c.DiffSize, c.SetSize)
	case c.Rate < 0:
		return fmt.Errorf("load: negative rate")
	case c.MuxStreams < 0:
		return fmt.Errorf("load: negative mux streams")
	case c.MuxStreams > 1 && c.Reconnect:
		return fmt.Errorf("load: mux shares warm connections; -reconnect contradicts it")
	case c.MuxStreams > 1 && c.LegacySync:
		return fmt.Errorf("load: mux negotiation requires the fast-path sync")
	case c.Compress && c.MuxStreams <= 1:
		return fmt.Errorf("load: compression is negotiated per mux connection; set MuxStreams > 1")
	case c.Sets < 0:
		return fmt.Errorf("load: negative set count")
	case c.Sets > 0 && c.SetName != "":
		return fmt.Errorf("load: many-sets mode names its own sets; SetName contradicts it")
	case c.Sets > 0 && c.Churn > 0:
		return fmt.Errorf("load: many-sets mode rebuilds the set per sync; churn contradicts it")
	case c.ZipfS != 0 && c.Sets == 0:
		return fmt.Errorf("load: zipf skew requires many-sets mode (Sets > 0)")
	case c.ZipfS != 0 && c.ZipfS <= 1:
		return fmt.Errorf("load: zipf parameter must exceed 1 (got %g)", c.ZipfS)
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	return nil
}

// ManySetName is workload.ManySetName, kept under its old name for this
// package's tests; the catalog's naming lives beside workload.ManySet, where
// the serving binary reaches it without importing the load generator.
func ManySetName(idx int) string { return workload.ManySetName(idx) }

// LatencySummary digests the client-observed sync latency distribution,
// in microseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
}

// Report is the machine-readable outcome of a run (the BENCH_load.json
// payload).
type Report struct {
	Workers    int     `json:"workers"`
	SetSize    int     `json:"set_size"`
	DiffSize   int     `json:"diff_size"`
	Churn      int     `json:"churn"`
	Rate       float64 `json:"rate_target"` // 0 = closed loop
	Reconnect  bool    `json:"reconnect"`
	FastSync   bool    `json:"fast_sync"`             // single-RTT fast path in use
	MuxStreams int     `json:"mux_streams,omitempty"` // streams per shared connection (0 = unmuxed)
	MuxConns   int     `json:"mux_conns,omitempty"`   // shared connections the muxed fleet rides
	Sets       int     `json:"sets,omitempty"`        // many-sets catalog size (0 = single-set mode)
	ZipfS      float64 `json:"zipf_s,omitempty"`      // many-sets access skew (0 = uniform)

	DurationSec  float64        `json:"duration_sec"`
	Syncs        int64          `json:"syncs"`
	Errors       int64          `json:"errors"`
	SyncsPerSec  float64        `json:"syncs_per_sec"`
	BytesRead    int64          `json:"bytes_read"`    // client-observed, = server BytesOut
	BytesWritten int64          `json:"bytes_written"` // client-observed, = server BytesIn
	BytesPerSec  float64        `json:"bytes_per_sec"` // both directions
	Rounds       int64          `json:"rounds"`
	DiffElements int64          `json:"diff_elements"`
	LatencyUS    LatencySummary `json:"latency_us"`

	// Chaos-run outcome. Faults counts injected connection faults,
	// Retries the retry attempts the fleet spent recovering from them,
	// and Unreconciled the workers whose final fault-free convergence
	// check failed — the number that must be zero for a chaos soak to
	// pass (per-sync Errors are expected casualties under injection).
	Chaos        bool  `json:"chaos"`
	Faults       int64 `json:"faults_injected"`
	Retries      int64 `json:"retries"`
	Unreconciled int64 `json:"unreconciled"`

	// FirstError samples the first failure for diagnostics ("" when clean).
	FirstError string `json:"first_error,omitempty"`
}

// countingConn tallies wire bytes as they cross the connection, so the
// client side knows exactly what the server's BytesIn/BytesOut counters
// saw (frame headers included).
type countingConn struct {
	net.Conn
	r, w *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.Add(int64(n))
	return n, err
}

// muxGroup is one shared, lazily dialed multiplexed connection carrying
// the syncs of MuxStreams workers as concurrent streams.
type muxGroup struct {
	mu sync.Mutex
	mc *pbs.MuxConn
}

// stream returns a fresh stream on the group's shared connection, dialing
// it on first use or after a drop. The MuxConn is resolved under the lock
// but Stream blocks outside it — every stream past the first waits on the
// negotiating sync's hello reply, and holding the lock there would
// serialize the whole group behind one round trip.
func (g *muxGroup) stream(ctx context.Context, w *worker, bytesR, bytesW *atomic.Int64) (*pbs.MuxStream, *pbs.MuxConn, error) {
	for attempt := 0; ; attempt++ {
		g.mu.Lock()
		mc := g.mc
		if mc == nil {
			conn, err := w.dialConn(ctx, bytesR, bytesW)
			if err != nil {
				g.mu.Unlock()
				return nil, nil, err
			}
			mc = pbs.NewMuxConn(conn, pbs.WithMuxCompression(w.cfg.Compress))
			g.mc = mc
		}
		g.mu.Unlock()
		st, err := mc.Stream()
		if err == nil {
			return st, mc, nil
		}
		// A dead or exhausted connection gets replaced once; a second
		// failure (or a peer that declined mux outright) is the caller's
		// error to count.
		g.drop(mc)
		if attempt > 0 || errors.Is(err, pbs.ErrMuxDeclined) {
			return nil, nil, err
		}
	}
}

// drop discards the group's connection after a failure so the next stream
// redials. Only the current connection is dropped — a sibling worker may
// already have replaced it.
func (g *muxGroup) drop(mc *pbs.MuxConn) {
	g.mu.Lock()
	if g.mc == mc {
		g.mc = nil
	}
	g.mu.Unlock()
	mc.Close()
}

func (g *muxGroup) close() {
	g.mu.Lock()
	mc := g.mc
	g.mc = nil
	g.mu.Unlock()
	if mc != nil {
		mc.Close()
	}
}

// worker is one concurrent client: a warm Set, its churn state, and its
// (possibly persistent) connection.
type worker struct {
	id    int
	cfg   *Config
	set   *pbs.Set
	rng   *rand.Rand
	conn  net.Conn
	group *muxGroup // non-nil in mux mode: the shared connection pool slot

	elems  []uint64 // mutable mirror of the owned elements, for sampling
	parked []uint64 // currently-removed churn elements
	expect map[uint64]struct{}

	zipf    *rand.Zipf // many-sets skewed index source (nil = uniform)
	curName string     // many-sets: registry name of the set this sync targets

	dials uint64 // connections opened, keys the per-conn chaos seed

	syncs   atomic.Int64
	errs    atomic.Int64
	rounds  atomic.Int64
	diffs   atomic.Int64
	retries atomic.Int64
	faults  atomic.Int64
}

// dialConn opens one connection for the worker, wrapping it in the byte
// counter and, when configured, the chaos injector with a per-connection
// deterministic identity.
func (w *worker) dialConn(ctx context.Context, bytesR, bytesW *atomic.Int64) (net.Conn, error) {
	conn, err := dial(ctx, w.cfg.Addr)
	if err != nil {
		return nil, err
	}
	w.dials++
	var wrapped net.Conn = countingConn{Conn: conn, r: bytesR, w: bytesW}
	if w.cfg.Chaos.Enabled() {
		id := uint64(w.id)*1_000_003 + w.dials
		ccfg := w.cfg.Chaos
		ccfg.OnFault = func(chaos.Event) { w.faults.Add(1) }
		wrapped = chaos.Wrap(wrapped, ccfg, id)
	}
	return wrapped, nil
}

// Run executes one load run and aggregates the fleet's measurements. It
// returns an error only when the run could not measure anything (bad
// config, or not one sync succeeded); individual sync failures are
// counted in Report.Errors and sampled in Report.FirstError.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var pair *workload.Pair
	if cfg.Sets == 0 {
		var err error
		pair, err = workload.Generate(workload.Config{
			UniverseBits: 32, SizeA: cfg.SetSize, D: cfg.DiffSize, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}

	var groups []*muxGroup
	if cfg.MuxStreams > 1 {
		groups = make([]*muxGroup, (cfg.Workers+cfg.MuxStreams-1)/cfg.MuxStreams)
		for i := range groups {
			groups[i] = &muxGroup{}
		}
		defer func() {
			for _, g := range groups {
				g.close()
			}
		}()
	}

	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		w := &worker{
			id:  i,
			cfg: &cfg,
			rng: rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(i)*0x9E3779B97F4A7C15))),
		}
		if groups != nil {
			w.group = groups[i/cfg.MuxStreams]
		}
		if cfg.Sets > 0 {
			// Many-sets mode: the worker builds a fresh set per sync in
			// pickSet; here it only needs its index distribution.
			if cfg.ZipfS > 1 {
				w.zipf = rand.NewZipf(w.rng, cfg.ZipfS, 1, uint64(cfg.Sets-1))
			}
		} else {
			set, err := pbs.NewSet(pair.A, baseOption(cfg.Options))
			if err != nil {
				return nil, err
			}
			w.set = set
			w.elems = append([]uint64(nil), pair.A...)
			if cfg.Verify {
				w.expect = make(map[uint64]struct{}, len(pair.Diff))
				for _, x := range pair.Diff {
					w.expect[x] = struct{}{}
				}
			}
		}
		workers[i] = w
	}

	// runCtx is always cancelled when Run returns (not only in timed
	// mode), so the pacer goroutine below can never outlive the run.
	var (
		runCtx context.Context
		cancel context.CancelFunc
	)
	if cfg.SyncsPerWorker > 0 {
		runCtx, cancel = context.WithCancel(ctx)
	} else {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
	}
	defer cancel()

	// Open-loop pacing: one shared token stream at the target rate. A full
	// buffer means the fleet is lagging the offered rate; dropped tokens
	// keep the arrival process from bursting unboundedly when it catches
	// up.
	var tokens chan struct{}
	if cfg.Rate > 0 {
		tokens = make(chan struct{}, cfg.Workers)
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tk := time.NewTicker(interval)
		defer tk.Stop()
		go func() {
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tk.C:
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	var (
		latency  hist.Histogram
		bytesR   atomic.Int64
		bytesW   atomic.Int64
		firstErr atomic.Pointer[string]
		wg       sync.WaitGroup
	)
	recordErr := func(err error) {
		msg := err.Error()
		firstErr.CompareAndSwap(nil, &msg)
	}

	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer w.closeConn()
			for n := 0; cfg.SyncsPerWorker <= 0 || n < cfg.SyncsPerWorker; n++ {
				if runCtx.Err() != nil {
					return
				}
				if tokens != nil {
					select {
					case <-runCtx.Done():
						return
					case <-tokens:
					}
				}
				if cfg.Sets > 0 {
					if err := w.pickSet(); err != nil {
						w.errs.Add(1)
						recordErr(fmt.Errorf("worker %d sync %d: %w", w.id, n, err))
						return
					}
				} else if n > 0 {
					w.churn()
				}
				// Syncs run under the caller's context, not the run
				// deadline: at the deadline the fleet stops *starting*
				// syncs and drains the in-flight ones (bounded by
				// SyncTimeout), so a timed run ends with zero half-aborted
				// server sessions.
				err := w.sync(ctx, &latency, &bytesR, &bytesW)
				if err != nil {
					// A cancellation from the caller is the run being torn
					// down, not a server failure.
					if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
						return
					}
					w.errs.Add(1)
					recordErr(fmt.Errorf("worker %d sync %d: %w", w.id, n, err))
					w.closeConn()
					select {
					case <-runCtx.Done():
						return
					case <-time.After(10 * time.Millisecond):
					}
					continue
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// After a fault-injected (or retrying) run, prove convergence: every
	// worker must reconcile exactly against ground truth over a clean,
	// fault-free connection. This is the chaos soak's pass criterion —
	// per-sync errors under injection are expected casualties, but a
	// worker that cannot reach the correct difference once the faults
	// stop means data was lost.
	var unreconciled atomic.Int64
	if cfg.Verify && (cfg.Chaos.Enabled() || cfg.Retry) {
		var cwg sync.WaitGroup
		for _, w := range workers {
			cwg.Add(1)
			go func(w *worker) {
				defer cwg.Done()
				if err := w.converge(ctx, &bytesR, &bytesW); err != nil {
					unreconciled.Add(1)
					recordErr(fmt.Errorf("worker %d unreconciled: %w", w.id, err))
				}
			}(w)
		}
		cwg.Wait()
	}

	rep := &Report{
		Workers:   cfg.Workers,
		SetSize:   cfg.SetSize,
		DiffSize:  cfg.DiffSize,
		Churn:     cfg.Churn,
		Rate:      cfg.Rate,
		Reconnect: cfg.Reconnect,
		FastSync:  !cfg.LegacySync,

		DurationSec:  elapsed.Seconds(),
		BytesRead:    bytesR.Load(),
		BytesWritten: bytesW.Load(),
	}
	if cfg.MuxStreams > 1 {
		rep.MuxStreams = cfg.MuxStreams
		rep.MuxConns = len(groups)
	}
	rep.Sets = cfg.Sets
	rep.ZipfS = cfg.ZipfS
	rep.Chaos = cfg.Chaos.Enabled()
	rep.Unreconciled = unreconciled.Load()
	for _, w := range workers {
		rep.Syncs += w.syncs.Load()
		rep.Errors += w.errs.Load()
		rep.Rounds += w.rounds.Load()
		rep.DiffElements += w.diffs.Load()
		rep.Retries += w.retries.Load()
		rep.Faults += w.faults.Load()
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.SyncsPerSec = float64(rep.Syncs) / sec
		rep.BytesPerSec = float64(rep.BytesRead+rep.BytesWritten) / sec
	}
	snap := latency.Snapshot()
	rep.LatencyUS = LatencySummary{
		Count: snap.Count,
		P50:   snap.Quantile(0.50),
		P95:   snap.Quantile(0.95),
		P99:   snap.Quantile(0.99),
		Max:   snap.Max,
	}
	if snap.Count > 0 {
		rep.LatencyUS.Mean = float64(snap.Sum) / float64(snap.Count)
	}
	if msg := firstErr.Load(); msg != nil {
		rep.FirstError = *msg
	}
	if rep.Syncs == 0 {
		if rep.FirstError != "" {
			return rep, fmt.Errorf("load: no sync succeeded: %s", rep.FirstError)
		}
		return rep, fmt.Errorf("load: no sync completed within the run")
	}
	return rep, nil
}

// pickSet points the worker at the next catalog set for a many-sets
// sync: it draws an index (zipf-skewed or uniform), rebuilds the local
// set as the catalog set minus its first DiffSize elements, and tracks
// those withheld elements as the exact expected difference. The rebuild
// is the per-sync client cost of hosting-scale runs — it models a fresh
// client arriving for a set, which is exactly the access pattern that
// drives the server's cold-load and eviction machinery.
func (w *worker) pickSet() error {
	cfg := w.cfg
	var idx int
	if w.zipf != nil {
		idx = int(w.zipf.Uint64())
	} else {
		idx = w.rng.Intn(cfg.Sets)
	}
	full := workload.ManySet(cfg.Seed, idx, cfg.SetSize)
	set, err := pbs.NewSet(full[cfg.DiffSize:], baseOption(cfg.Options))
	if err != nil {
		return err
	}
	w.set = set
	w.curName = workload.ManySetName(idx)
	if cfg.Verify {
		w.expect = make(map[uint64]struct{}, cfg.DiffSize)
		for _, x := range full[:cfg.DiffSize] {
			w.expect[x] = struct{}{}
		}
	}
	return nil
}

// setName resolves the registry name this worker's next sync addresses:
// the per-sync catalog name in many-sets mode, else the configured one.
func (w *worker) setName() string {
	if w.cfg.Sets > 0 {
		return w.curName
	}
	return w.cfg.SetName
}

// sync runs one reconciliation, dialing if the worker holds no connection
// (or redials every time under Reconnect). A failure on a *reused* warm
// connection gets one transparent retry on a fresh one: a server is
// entitled to idle-drop a warm connection between paced syncs (open-loop
// runs at low per-worker rates sit idle longer than the server's
// IdleTimeout), and that is connection hygiene, not a measurement of the
// server failing.
func (w *worker) sync(ctx context.Context, latency *hist.Histogram, bytesR, bytesW *atomic.Int64) error {
	cfg := w.cfg
	syncCtx, cancel := context.WithTimeout(ctx, cfg.SyncTimeout)
	defer cancel()
	opts := []pbs.Option{pbs.WithFastSync(!cfg.LegacySync)}
	if name := w.setName(); name != "" {
		opts = append(opts, pbs.WithSetName(name))
	}
	if w.group != nil {
		return w.syncMux(ctx, syncCtx, opts, latency, bytesR, bytesW)
	}
	if cfg.Retry {
		// Resilient-client mode: Sync owns the connection lifecycle,
		// dialing (and closing) each attempt through the policy's hook.
		w.closeConn()
		pol := pbs.RetryPolicy{
			MaxAttempts: cfg.RetryAttempts,
			Dial: func(ctx context.Context) (net.Conn, error) {
				return w.dialConn(ctx, bytesR, bytesW)
			},
			OnRetry: func(int, error, time.Duration) { w.retries.Add(1) },
		}
		start := time.Now()
		res, err := w.set.Sync(syncCtx, nil, append(opts, pbs.WithRetry(pol))...)
		if err != nil {
			return err
		}
		return w.finish(res, time.Since(start), latency)
	}
	reused := w.conn != nil && !cfg.Reconnect
	if w.conn == nil || cfg.Reconnect {
		w.closeConn()
		conn, err := w.dialConn(ctx, bytesR, bytesW)
		if err != nil {
			return err
		}
		w.conn = conn
	}
	start := time.Now()
	res, err := w.set.Sync(syncCtx, w.conn, opts...)
	elapsed := time.Since(start)
	if err != nil && reused && ctx.Err() == nil {
		w.closeConn()
		conn, derr := w.dialConn(syncCtx, bytesR, bytesW)
		if derr != nil {
			return err // report the sync failure, not the retry dial
		}
		w.conn = conn
		start = time.Now()
		res, err = w.set.Sync(syncCtx, w.conn, opts...)
		elapsed = time.Since(start)
	}
	if err != nil {
		return err
	}
	return w.finish(res, elapsed, latency)
}

// syncMux runs one reconciliation as a stream on the worker's shared
// group connection. Each sync takes a fresh single-use stream; a failed
// sync drops the whole group connection (its framing can no longer be
// trusted) and the group's next stream redials. Under Retry, the policy's
// Dial hands out streams instead of sockets, so attempts are retried
// without re-dialing while the connection itself stays healthy.
func (w *worker) syncMux(ctx, syncCtx context.Context, opts []pbs.Option, latency *hist.Histogram, bytesR, bytesW *atomic.Int64) error {
	if w.cfg.Retry {
		pol := pbs.RetryPolicy{
			MaxAttempts: w.cfg.RetryAttempts,
			Dial: func(ctx context.Context) (net.Conn, error) {
				st, _, err := w.group.stream(ctx, w, bytesR, bytesW)
				return st, err
			},
			OnRetry: func(int, error, time.Duration) { w.retries.Add(1) },
		}
		start := time.Now()
		res, err := w.set.Sync(syncCtx, nil, append(opts, pbs.WithRetry(pol))...)
		if err != nil {
			return err
		}
		return w.finish(res, time.Since(start), latency)
	}
	st, mc, err := w.group.stream(ctx, w, bytesR, bytesW)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := w.set.Sync(syncCtx, st, opts...)
	st.Close()
	if err != nil {
		w.group.drop(mc)
		return err
	}
	return w.finish(res, time.Since(start), latency)
}

// finish applies the post-sync bookkeeping shared by both connection
// modes: completion check, ground-truth verification, and measurement.
func (w *worker) finish(res *pbs.Result, elapsed time.Duration, latency *hist.Histogram) error {
	if !res.Complete {
		return fmt.Errorf("incomplete after %d rounds", res.Rounds)
	}
	if w.cfg.Verify {
		if err := w.verify(res.Difference); err != nil {
			return err
		}
	}
	latency.Record(uint64(w.id), elapsed.Microseconds())
	w.syncs.Add(1)
	w.rounds.Add(int64(res.Rounds))
	w.diffs.Add(int64(len(res.Difference)))
	return nil
}

// converge runs one fault-free, retried reconciliation against ground
// truth — the post-chaos convergence proof. The worker's connection (which
// may carry a chaos wrapper) is discarded; the attempts dial clean.
func (w *worker) converge(ctx context.Context, bytesR, bytesW *atomic.Int64) error {
	w.closeConn()
	ctx, cancel := context.WithTimeout(ctx, w.cfg.SyncTimeout)
	defer cancel()
	opts := []pbs.Option{pbs.WithFastSync(!w.cfg.LegacySync)}
	if name := w.setName(); name != "" {
		opts = append(opts, pbs.WithSetName(name))
	}
	pol := pbs.RetryPolicy{
		MaxAttempts: 6,
		Dial: func(ctx context.Context) (net.Conn, error) {
			conn, err := dial(ctx, w.cfg.Addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, r: bytesR, w: bytesW}, nil
		},
	}
	res, err := w.set.Sync(ctx, nil, append(opts, pbs.WithRetry(pol))...)
	if err != nil {
		return err
	}
	if !res.Complete {
		return fmt.Errorf("incomplete after %d rounds", res.Rounds)
	}
	return w.verify(res.Difference)
}

// churn toggles Churn elements through the incremental Add/Remove path:
// one cycle removes a random sample, the next restores it.
func (w *worker) churn() {
	k := w.cfg.Churn
	if k <= 0 {
		return
	}
	if len(w.parked) > 0 {
		if _, err := w.set.Add(w.parked...); err == nil {
			w.elems = append(w.elems, w.parked...)
			for _, x := range w.parked {
				w.toggleExpect(x)
			}
		}
		w.parked = w.parked[:0]
		return
	}
	if k > len(w.elems) {
		k = len(w.elems)
	}
	for j := 0; j < k; j++ {
		i := w.rng.Intn(len(w.elems))
		w.parked = append(w.parked, w.elems[i])
		w.elems[i] = w.elems[len(w.elems)-1]
		w.elems = w.elems[:len(w.elems)-1]
	}
	w.set.Remove(w.parked...)
	for _, x := range w.parked {
		w.toggleExpect(x)
	}
}

// toggleExpect maintains the exact expected difference under churn: every
// membership toggle on the local set toggles the element's membership in
// A△B (the server's set never changes).
func (w *worker) toggleExpect(x uint64) {
	if w.expect == nil {
		return
	}
	if _, ok := w.expect[x]; ok {
		delete(w.expect, x)
	} else {
		w.expect[x] = struct{}{}
	}
}

// verify checks a learned difference against the tracked ground truth.
func (w *worker) verify(diff []uint64) error {
	if len(diff) != len(w.expect) {
		return fmt.Errorf("difference mismatch: got %d elements, want %d", len(diff), len(w.expect))
	}
	for _, x := range diff {
		if _, ok := w.expect[x]; !ok {
			return fmt.Errorf("difference contains unexpected element %#x", x)
		}
	}
	return nil
}

// dial opens one connection to the server with TCP_NODELAY set explicitly
// — the latency measurement depends on it, so it is not left to defaults.
func dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn, nil
}

func (w *worker) closeConn() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// baseOption adapts an optional *pbs.Options into the Set constructor's
// functional-option form (a zero Options resolves to the defaults, same
// as nil).
func baseOption(o *pbs.Options) pbs.Option {
	if o == nil {
		return pbs.WithOptions(pbs.Options{})
	}
	return pbs.WithOptions(*o)
}

// ServerSet returns the element slice the server must serve so that
// clients built by Run (same Config) differ from it by exactly DiffSize:
// the B side of the shared workload. cmd/pbs-serve's -demo-* flags
// compute the same thing; this helper is for in-process servers (tests,
// benchmarks).
func ServerSet(cfg Config) ([]uint64, error) {
	cfg = cfg.withDefaults()
	pair, err := workload.Generate(workload.Config{
		UniverseBits: 32, SizeA: cfg.SetSize, D: cfg.DiffSize, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return append([]uint64(nil), pair.B...), nil
}

// String renders the human-readable run summary pbs-loadgen prints.
func (r *Report) String() string {
	mode := "closed-loop"
	if r.Rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f/s", r.Rate)
	}
	conn := "warm conns"
	if r.Reconnect {
		conn = "reconnect"
	}
	if r.MuxStreams > 1 {
		conn = fmt.Sprintf("mux %d streams/conn over %d conns", r.MuxStreams, r.MuxConns)
	}
	shape := fmt.Sprintf("|A|=%d d=%d churn=%d", r.SetSize, r.DiffSize, r.Churn)
	if r.Sets > 0 {
		dist := "uniform"
		if r.ZipfS > 0 {
			dist = fmt.Sprintf("zipf s=%g", r.ZipfS)
		}
		shape = fmt.Sprintf("%d sets (%s) size=%d d=%d", r.Sets, dist, r.SetSize, r.DiffSize)
	}
	s := fmt.Sprintf(
		"%d workers (%s, %s), %s: %d syncs (%d errors) in %.2fs = %.1f syncs/s, %.2f MB/s; latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
		r.Workers, mode, conn, shape,
		r.Syncs, r.Errors, r.DurationSec, r.SyncsPerSec,
		r.BytesPerSec/1e6,
		r.LatencyUS.P50/1e3, r.LatencyUS.P95/1e3, r.LatencyUS.P99/1e3,
		float64(r.LatencyUS.Max)/1e3)
	if r.Chaos || r.Retries > 0 || r.Unreconciled > 0 {
		s += fmt.Sprintf("; chaos: %d faults injected, %d retries, %d unreconciled",
			r.Faults, r.Retries, r.Unreconciled)
	}
	return s
}
