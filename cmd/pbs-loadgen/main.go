// Command pbs-loadgen drives a running pbs-serve instance with a fleet of
// concurrent warm pbs.Set clients and reports what the server sustains:
// syncs/s, bytes/s, and p50/p95/p99 sync latency — to stdout for humans
// and, with -json, to a file for tooling. It drives shapes the repository
// benchmark (bench/) does not: hundreds of concurrent sessions, and hosted
// catalogs of 10k–100k sets.
//
// The server must serve the B side of the same synthetic workload, i.e.
// identical -size/-diff/-workload-seed (pbs-serve spells them -demo-size,
// -demo-d, -demo-seed) and the same protocol -seed:
//
//	pbs-serve   -addr :9931 -demo-size 10000 -demo-d 100 -demo-seed 1
//	pbs-loadgen -addr localhost:9931 -size 10000 -diff 100 -workload-seed 1 \
//	    -workers 500 -duration 30s -churn 10 -json load.json
//
// Closed-loop by default (every worker keeps one sync in flight, so
// -workers is the concurrent-session count); -rate R switches to an
// open-loop arrival process targeting R syncs/s across the fleet. Workers
// hold one warm connection each and run sessions back to back over it;
// -reconnect dials a fresh connection per sync instead. -churn N toggles
// N elements through the Set's incremental Add/Remove path between syncs.
// -verify checks every learned difference against the tracked ground
// truth and counts mismatches as errors. -mux N multiplexes every N
// workers' syncs as concurrent streams over one shared connection
// (protocol version 2), so 500 workers with -mux 32 hold only 16 sockets;
// -compress additionally offers lz frame compression during negotiation.
//
// -sets N switches to many-sets mode: every sync targets one of N hosted
// catalog sets by name instead of the single default set, with -zipf s
// skewing which sets stay hot. The server must host the same catalog:
//
//	pbs-serve   -addr :9931 -data-dir /var/pbs -host-sets 10000 -host-size 400
//	pbs-loadgen -addr localhost:9931 -sets 10000 -size 400 -zipf 1.2 -verify
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pbs"
	"pbs/internal/chaos"
	"pbs/internal/load"
)

func main() {
	var (
		addr    = flag.String("addr", "", "server address host:port (required)")
		setName = flag.String("set-name", "", "named registry set to sync against (empty = server default)")

		workers  = flag.Int("workers", 50, "concurrent clients (closed-loop: also the concurrent-session count)")
		duration = flag.Duration("duration", 10*time.Second, "run length (ignored with -syncs)")
		syncs    = flag.Int("syncs", 0, "exact syncs per worker instead of a timed run")

		size  = flag.Int("size", 10000, "per-client set size |A| (server must serve -demo-size of the same value)")
		diff  = flag.Int("diff", 100, "initial per-client difference |A△B| (server -demo-d)")
		churn = flag.Int("churn", 0, "elements toggled through Add/Remove between syncs")
		wseed = flag.Int64("workload-seed", 1, "workload seed (server -demo-seed)")

		sets = flag.Int("sets", 0, "many-sets mode: sync against N hosted catalog sets (server -host-sets N, matching -host-size and seed)")
		zipf = flag.Float64("zipf", 0, "skew many-sets access with a Zipf(s) index distribution, s > 1 (0 = uniform; requires -sets)")

		rate       = flag.Float64("rate", 0, "open-loop target syncs/s across the fleet (0 = closed loop)")
		reconnect  = flag.Bool("reconnect", false, "dial a fresh connection per sync instead of holding warm connections")
		mux        = flag.Int("mux", 0, "multiplex N workers' syncs as concurrent streams over each shared connection (0/1 = one connection per worker)")
		compress   = flag.Bool("compress", false, "offer lz frame compression during mux negotiation (requires -mux)")
		timeout    = flag.Duration("sync-timeout", 30*time.Second, "per-sync deadline")
		verify     = flag.Bool("verify", false, "check every learned difference against the tracked ground truth")
		legacySync = flag.Bool("legacy-sync", false, "use the multi-RTT protocol-0 flow instead of the single-RTT fast path")

		chaosSpec = flag.String("chaos", "", "inject connection faults, e.g. 'drop=0.02,stall=0.05,stall-ms=300,seed=7' (keys: drop, reset, corrupt, stall, stall-ms, latency-ms, jitter-ms, bw, chunk, seed)")
		retry     = flag.Bool("retry", false, "sync under a retry policy (redial per attempt, exponential backoff, retry-after hints honored)")
		attempts  = flag.Int("retry-attempts", 0, "retry attempt budget per sync (0 = library default)")

		seed         = flag.Uint64("seed", 42, "shared protocol hash seed (server -seed)")
		maxD         = flag.Int("max-d", 0, "cap on the accepted difference estimate d̂ (0 = library default)")
		strongVerify = flag.Bool("strong-verify", false, "request the strong multiset-hash verification")

		jsonPath = flag.String("json", "", "write the machine-readable report to this file")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "pbs-loadgen: -addr is required")
		flag.Usage()
		os.Exit(2)
	}

	chaosCfg, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbs-loadgen:", err)
		os.Exit(2)
	}

	cfg := load.Config{
		Addr:           *addr,
		SetName:        *setName,
		Workers:        *workers,
		Duration:       *duration,
		SyncsPerWorker: *syncs,
		SetSize:        *size,
		DiffSize:       *diff,
		Churn:          *churn,
		Seed:           *wseed,
		Sets:           *sets,
		ZipfS:          *zipf,
		Rate:           *rate,
		Reconnect:      *reconnect,
		MuxStreams:     *mux,
		Compress:       *compress,
		SyncTimeout:    *timeout,
		Verify:         *verify,
		LegacySync:     *legacySync,
		Chaos:          chaosCfg,
		Retry:          *retry,
		RetryAttempts:  *attempts,
		Options:        &pbs.Options{Seed: *seed, MaxD: *maxD, StrongVerify: *strongVerify},
	}

	// SIGINT/SIGTERM end the run early; whatever was measured so far is
	// still reported.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	if cfg.Sets > 0 {
		fmt.Printf("pbs-loadgen: %d workers against %s (%d sets, size=%d, d=%d, zipf=%g)...\n",
			cfg.Workers, cfg.Addr, *sets, *size, *diff, *zipf)
	} else {
		fmt.Printf("pbs-loadgen: %d workers against %s (|A|=%d, d=%d, churn=%d)...\n",
			cfg.Workers, cfg.Addr, *size, *diff, *churn)
	}
	rep, err := load.Run(ctx, cfg)
	if rep != nil {
		fmt.Println("pbs-loadgen:", rep)
		if *jsonPath != "" {
			if werr := writeJSON(*jsonPath, rep); werr != nil {
				fmt.Fprintln(os.Stderr, "pbs-loadgen:", werr)
				os.Exit(1)
			}
			fmt.Printf("pbs-loadgen: wrote %s\n", *jsonPath)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbs-loadgen:", err)
		os.Exit(1)
	}
	if rep.Chaos || cfg.Retry {
		// Under fault injection, per-sync errors are expected casualties;
		// the pass criterion is the post-run convergence check.
		if rep.Unreconciled > 0 {
			fmt.Fprintf(os.Stderr, "pbs-loadgen: %d workers unreconciled after the run (first: %s)\n",
				rep.Unreconciled, rep.FirstError)
			os.Exit(1)
		}
		return
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "pbs-loadgen: %d syncs failed (first: %s)\n", rep.Errors, rep.FirstError)
		os.Exit(1)
	}
}

func writeJSON(path string, rep *load.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
