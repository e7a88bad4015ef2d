// Command pbs-recon reconciles two sets of 32-bit element IDs stored in
// text files (one decimal or 0x-prefixed hex ID per line) and prints the
// difference, demonstrating the library end to end.
//
// Usage:
//
//	pbs-recon -a alice.txt -b bob.txt [-seed N]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pbs"
)

func main() {
	var (
		aPath      = flag.String("a", "", "file with Alice's element IDs (one per line)")
		bPath      = flag.String("b", "", "file with Bob's element IDs (one per line)")
		seed       = flag.Uint64("seed", 42, "shared hash seed")
		workers    = flag.Int("parallelism", 0, "per-group decode workers (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *aPath == "" || *bPath == "" {
		fmt.Fprintln(os.Stderr, "usage: pbs-recon -a alice.txt -b bob.txt")
		os.Exit(2)
	}
	a, err := readIDs(*aPath)
	if err != nil {
		fatal(err)
	}
	b, err := readIDs(*bPath)
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	res, err := reconcile(a, b, pbs.WithSeed(*seed), pbs.WithParallelism(*workers))
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	// Report the reconciliation error before any profile-write error so a
	// bad -memprofile path cannot swallow the failure the user cares about.
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbs-recon:", err)
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fatal(merr)
		}
		runtime.GC() // materialize up-to-date allocation stats
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fatal(merr)
		}
		f.Close()
	}
	if err != nil {
		os.Exit(1)
	}
	fmt.Printf("# |A|=%d |B|=%d estimated d=%d rounds=%d payload=%dB estimator=%dB complete=%v\n",
		len(a), len(b), res.EstimatedD, res.Rounds, res.PayloadBytes, res.EstimatorBytes, res.Complete)
	for _, x := range res.Difference {
		fmt.Printf("%d\n", x)
	}
}

// reconcile learns a △ b in process, both endpoints in this address space.
func reconcile(a, b []uint64, opts ...pbs.Option) (*pbs.Result, error) {
	sa, err := pbs.NewSet(a, opts...)
	if err != nil {
		return nil, err
	}
	sb, err := pbs.NewSet(b, opts...)
	if err != nil {
		return nil, err
	}
	return sa.Reconcile(context.Background(), sb)
}

func readIDs(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []uint64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), base(s), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbs-recon:", err)
	os.Exit(1)
}
