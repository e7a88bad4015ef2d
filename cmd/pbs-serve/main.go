// Command pbs-serve runs a concurrent PBS reconciliation server: many
// clients sync their sets against one immutable server-side snapshot over
// TCP, with per-session limits (d̂ cap, byte budget, round budget, idle
// deadline) guarding against hostile or broken peers, and counters
// exposed on an expvar metrics endpoint.
//
// Serve a set from a file (one decimal or 0x-prefixed hex ID per line):
//
//	pbs-serve -addr :9931 -set ids.txt
//
// Or serve side B of a synthetic workload (for demos and smoke tests):
//
//	pbs-serve -addr :9931 -demo-size 100000 -demo-d 100 -demo-seed 1
//
// The same binary doubles as a client with -sync; with the same demo
// flags it syncs side A of the workload and verifies the learned
// difference against the ground truth:
//
//	pbs-serve -sync localhost:9931 -demo-size 100000 -demo-d 100 -demo-seed 1
//
// Hosting mode serves many named sets instead of (or next to) the single
// default set: -data-dir persists hosted sets as segment files and lets
// -max-resident-bytes evict cold sets to disk (they keep answering
// estimates from their persisted sketch without loading), -tenant-quota
// caps what each tenant namespace may register, and -host-sets N
// populates a deterministic catalog (bench/s000000, bench/s000001, ...)
// that -sync -set-name addresses:
//
//	pbs-serve -addr :9931 -data-dir /var/pbs -max-resident-bytes 64000000 \
//	    -host-sets 10000 -host-size 400 -tenant-quota sets=100000,sessions=64
//
// Metrics: -metrics ADDR serves expvar on http://ADDR/debug/vars with the
// server counters and the per-completed-session latency/round/byte
// histograms published under "pbs_serve". SIGINT/SIGTERM drain in-flight
// sessions (up to -drain) before exiting; a final stats line is printed
// either way.
package main

import (
	"bufio"
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pbs"
	"pbs/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":9931", "listen address for the reconciliation server")
		metrics = flag.String("metrics", "", "listen address for the expvar metrics endpoint (empty = disabled)")
		syncTo  = flag.String("sync", "", "run as a client instead: sync against this server address")

		setPath  = flag.String("set", "", "file with the served element IDs (one per line)")
		setName  = flag.String("set-name", pbs.DefaultSetName, "registry name to serve the set under / sync against")
		demoSize = flag.Int("demo-size", 0, "serve a synthetic workload of this size instead of -set")
		demoD    = flag.Int("demo-d", 100, "difference cardinality of the synthetic workload")
		demoSeed = flag.Int64("demo-seed", 1, "seed of the synthetic workload")

		seed         = flag.Uint64("seed", 42, "shared protocol hash seed (must match on both sides)")
		maxD         = flag.Int("max-d", 0, "cap on the accepted difference estimate d̂ (0 = library default)")
		strongVerify = flag.Bool("strong-verify", false, "client: request the strong multiset-hash verification")
		legacySync   = flag.Bool("legacy-sync", false, "client: use the multi-RTT protocol-0 flow instead of the single-RTT fast path")

		maxSessions  = flag.Int("max-sessions", 0, "concurrent session cap (0 = default, <0 = uncapped)")
		softSessions = flag.Int("soft-sessions", 0, "soft admission watermark: shed new connections above this before the hard cap (0 = default headroom, <0 = disabled)")
		retryAfter   = flag.Duration("retry-after", 0, "base retry-after hint on busy rejections (0 = default, <0 = no hint)")
		idle         = flag.Duration("idle-timeout", 0, "per-frame idle deadline (0 = default, <0 = disabled)")
		byteBudget   = flag.Int64("byte-budget", 0, "per-session wire byte budget (0 = default, <0 = uncapped)")
		maxRounds    = flag.Int("max-rounds", 0, "per-session round budget (0 = default, <0 = uncapped)")
		maxStreams   = flag.Int("max-streams", 0, "per-connection mux stream cap (0 = default, <0 = decline mux negotiation)")
		drain        = flag.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight sessions")

		dataDir     = flag.String("data-dir", "", "persist hosted sets as segment files under this directory (enables crash-safe hosting and eviction)")
		maxResident = flag.Int64("max-resident-bytes", 0, "resident-bytes watermark above which cold hosted sets are evicted to disk (0 = keep everything resident; requires -data-dir to evict)")
		tenantQuota = flag.String("tenant-quota", "", "default per-tenant quota as 'sets=N,bytes=N,sessions=N' (0 or absent key = unlimited)")
		hostSets    = flag.Int("host-sets", 0, "host a synthetic catalog of N named sets (workload.ManySet of -demo-seed, names bench/s000000...) for hosting demos and smoke tests")
		hostSize    = flag.Int("host-size", 400, "elements per hosted catalog set")
	)
	flag.Parse()

	opt := &pbs.Options{Seed: *seed, MaxD: *maxD, StrongVerify: *strongVerify}

	if *syncTo != "" {
		runClient(*syncTo, *setName, opt, *setPath, *demoSize, *demoD, *demoSeed, *legacySync)
		return
	}

	quota, err := parseQuota(*tenantQuota)
	if err != nil {
		fatal(err)
	}
	hosting := *dataDir != "" || *hostSets > 0

	// A hosting server needs no default set; a classic one still requires
	// -set or -demo-size. The served catalog (when present) is a live
	// pbs.Set: validated once, estimator sketch maintained incrementally,
	// and mutable while serving (a reloaded catalog would land with
	// Add/Remove; new sessions pick it up, in-flight sessions keep the
	// view they started with).
	var set *pbs.Set
	if !hosting || *setPath != "" || *demoSize > 0 {
		elems, _, err := loadSet(*setPath, *demoSize, *demoD, *demoSeed, false)
		if err != nil {
			fatal(err)
		}
		set, err = pbs.NewSet(elems, pbs.WithOptions(*opt))
		if err != nil {
			fatal(err)
		}
	}
	srv := pbs.NewServer(pbs.ServerOptions{
		Protocol:             opt,
		MaxSessions:          *maxSessions,
		SoftSessionWatermark: *softSessions,
		RetryAfterHint:       *retryAfter,
		IdleTimeout:          *idle,
		SessionByteBudget:    *byteBudget,
		SessionMaxRounds:     *maxRounds,
		MaxStreams:           *maxStreams,
		DataDir:              *dataDir,
		MaxResidentBytes:     *maxResident,
		TenantQuota:          quota,
	})
	if set != nil {
		if err := srv.RegisterSet(*setName, set); err != nil {
			fatal(err)
		}
	}
	recovered := 0
	if *dataDir != "" {
		if recovered, err = srv.EnableHosting(); err != nil {
			fatal(err)
		}
	}
	if *hostSets > 0 {
		for i := 0; i < *hostSets; i++ {
			if err := srv.Host(workload.ManySetName(i), workload.ManySet(*demoSeed, i, *hostSize)); err != nil {
				fatal(fmt.Errorf("hosting catalog set %d: %w", i, err))
			}
		}
	}

	if *metrics != "" {
		expvar.Publish("pbs_serve", expvar.Func(func() any { return srv.Stats() }))
		// Listen before serving so a bound port (or ":0") is reported, and
		// a taken port fails loudly instead of logging and carrying on.
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pbs-serve: metrics on http://%s/debug/vars\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pbs-serve: metrics endpoint: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Exactly one startup line carries the "serving ... on ADDR" suffix —
	// scripts parse the bound address off its end.
	if set != nil {
		fmt.Printf("pbs-serve: serving %d elements as %q on %s\n", set.Len(), *setName, ln.Addr())
	} else {
		fmt.Printf("pbs-serve: serving %d hosted sets on %s\n", srv.Stats().SetsHosted, ln.Addr())
	}
	if hosting {
		st := srv.Stats()
		fmt.Printf("pbs-serve: hosting %d sets (%d recovered, %d resident, %d B resident, cap %d B, dir %q)\n",
			st.SetsHosted, recovered, st.SetsResident, st.ResidentBytes, *maxResident, *dataDir)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("pbs-serve: %v, draining sessions\n", sig)
		if !srv.Shutdown(*drain) {
			fmt.Fprintln(os.Stderr, "pbs-serve: drain timed out, sessions aborted")
		}
		<-serveErr
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	}
	st := srv.Stats()
	fmt.Printf("pbs-serve: done: %d completed, %d failed, %d rejected, %d rounds, %d B in, %d B out; session latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		st.Completed, st.Failed, st.Rejected, st.Rounds, st.BytesIn, st.BytesOut,
		st.LatencyUS.P50/1e3, st.LatencyUS.P95/1e3, st.LatencyUS.P99/1e3,
		float64(st.LatencyUS.Max)/1e3)
	if hosting {
		fmt.Printf("pbs-serve: hosted: %d sets, %d resident, %d cold loads, %d evictions, %d merges, %d quota rejections\n",
			st.SetsHosted, st.SetsResident, st.ColdLoads, st.Evictions, st.SegmentMerges, st.QuotaRejections)
	}
}

// parseQuota parses the -tenant-quota spec 'sets=N,bytes=N,sessions=N'
// (any subset of keys; 0 or absent = unlimited on that axis).
func parseQuota(spec string) (pbs.TenantQuota, error) {
	var q pbs.TenantQuota
	if spec == "" {
		return q, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return q, fmt.Errorf("-tenant-quota: %q is not key=value", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return q, fmt.Errorf("-tenant-quota: bad value in %q", kv)
		}
		switch k {
		case "sets":
			q.MaxSets = n
		case "bytes":
			q.MaxBytes = n
		case "sessions":
			q.MaxSessions = n
		default:
			return q, fmt.Errorf("-tenant-quota: unknown key %q (want sets, bytes, sessions)", k)
		}
	}
	return q, nil
}

// runClient syncs the local set (from -set or workload side A) against a
// running server and, when the workload ground truth is available,
// verifies the learned difference exactly.
func runClient(addr, setName string, opt *pbs.Options, setPath string, demoSize, demoD int, demoSeed int64, legacySync bool) {
	local, want, err := loadSet(setPath, demoSize, demoD, demoSeed, true)
	if err != nil {
		fatal(err)
	}
	// The server resolves an absent hello to its default set; only name
	// non-default sets explicitly.
	c := &pbs.Client{Addr: addr, Options: opt, Timeout: 2 * time.Minute, LegacySync: legacySync}
	if setName != pbs.DefaultSetName {
		c.Set = setName
	}
	// SIGINT aborts an in-flight sync promptly: the context cancellation
	// is wired into the connection deadlines.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	start := time.Now()
	res, err := c.SyncContext(ctx, local)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pbs-serve: synced |local|=%d in %v: |A△B|=%d, rounds=%d, complete=%v, wire=%d B\n",
		len(local), time.Since(start).Round(time.Millisecond),
		len(res.Difference), res.Rounds, res.Complete, res.WireBytes)
	if want != nil {
		if !res.Complete || !sameSet(res.Difference, want) {
			fatal(fmt.Errorf("difference mismatch: got %d elements, want %d (ground truth)",
				len(res.Difference), len(want)))
		}
		fmt.Println("pbs-serve: difference matches workload ground truth")
	}
}

// loadSet resolves the set selection flags: an explicit -set file, or one
// side of a synthetic workload (side A for the client, side B for the
// server) together with the ground-truth difference.
func loadSet(path string, demoSize, demoD int, demoSeed int64, clientSide bool) (set, truth []uint64, err error) {
	switch {
	case path != "" && demoSize > 0:
		return nil, nil, fmt.Errorf("-set and -demo-size are mutually exclusive")
	case path != "":
		set, err = readIDs(path)
		return set, nil, err
	case demoSize > 0:
		p, err := workload.Generate(workload.Config{
			UniverseBits: 32, SizeA: demoSize, D: demoD, Seed: demoSeed,
		})
		if err != nil {
			return nil, nil, err
		}
		if clientSide {
			return p.A, p.Diff, nil
		}
		return p.B, p.Diff, nil
	default:
		return nil, nil, fmt.Errorf("need -set FILE or -demo-size N")
	}
}

func sameSet(got, want []uint64) bool {
	g := slices.Clone(got)
	w := slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

func readIDs(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ids []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(line, "0x"), base(line), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ids = append(ids, v)
	}
	return ids, sc.Err()
}

func base(line string) int {
	if strings.HasPrefix(line, "0x") {
		return 16
	}
	return 10
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbs-serve:", err)
	os.Exit(1)
}
