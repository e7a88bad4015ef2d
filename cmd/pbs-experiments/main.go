// Command pbs-experiments regenerates the tables and figures of the PBS
// paper's evaluation (§8, Appendices H and J). Each experiment prints the
// same rows/series the paper reports.
//
// Usage:
//
//	pbs-experiments -exp fig1 [-instances N] [-sizeA N] [-dmax D]
//
// Experiments: fig1, fig2, fig3, fig4, fig5, table1, table2, sec52, sec53,
// sec23, appB, all. Defaults are scaled down from the paper's
// (|A|=10^6, 1000 instances) so a full run finishes in minutes; raise
// -sizeA and -instances to match the paper's scale exactly.
//
// The adaptive controller (not part of the paper) is measured against the
// paper-fixed configuration by the pbs package's TestAdaptiveNoWorseThanFixed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"pbs/internal/exper"
	"pbs/internal/markov"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id: fig1 fig2 fig3 fig4 fig5 table1 table2 sec52 sec53 sec23 appB all")
		instances  = flag.Int("instances", 5, "instances per data point (paper: 1000)")
		sizeA      = flag.Int("sizeA", 100000, "cardinality of set A (paper: 1000000)")
		dmax       = flag.Int("dmax", 10000, "largest set-difference cardinality in sweeps (paper: 100000)")
		psmax      = flag.Int("pinsketch-dmax", 1000, "largest d for plain PinSketch (O(d^2) decoding)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		parallel   = flag.Int("parallel", 1, "concurrent instances per data point (timings get noisy above 1)")
		verbose    = flag.Bool("v", true, "print per-point progress")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbs-experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pbs-experiments:", err)
			os.Exit(1)
		}
	}
	err := run(*exp, *instances, *sizeA, *dmax, *psmax, *seed, *parallel, *verbose)
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // explicit: os.Exit below would skip a defer
	}
	// Report the experiment error before any profile-write error so a bad
	// -memprofile path cannot swallow the failure the user cares about.
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbs-experiments:", err)
	}
	if *memprofile != "" {
		if merr := writeHeapProfile(*memprofile); merr != nil {
			fmt.Fprintln(os.Stderr, "pbs-experiments:", merr)
			os.Exit(1)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	return pprof.WriteHeapProfile(f)
}

func dGrid(dmax int) []int {
	grid := []int{10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000}
	var out []int
	for _, d := range grid {
		if d <= dmax {
			out = append(out, d)
		}
	}
	return out
}

func run(exp string, instances, sizeA, dmax, psmax int, seed int64, parallel int, verbose bool) error {
	var progress *os.File
	if verbose {
		progress = os.Stderr
	}
	all := exp == "all"
	ran := false

	if all || exp == "fig1" {
		ran = true
		fmt.Println("=== Figure 1: PBS vs PinSketch vs D.Digest (p0 = 0.99, r = 3) ===")
		pts, err := exper.Sweep(exper.SweepConfig{
			Ds:            dGrid(dmax),
			Algos:         []exper.Algo{exper.AlgoPBS, exper.AlgoPinSketch, exper.AlgoDDigest},
			Instances:     instances,
			SizeA:         sizeA,
			BaseSeed:      seed,
			Run:           exper.RunConfig{MaxRounds: 3},
			PinSketchMaxD: psmax,
			Parallel:      parallel,
			Progress:      progress,
		})
		if err != nil {
			return err
		}
		exper.PrintTable(os.Stdout, pts, false)
	}

	if all || exp == "fig2" {
		ran = true
		fmt.Println("\n=== Figure 2: PBS vs Graphene (p0 = 239/240) ===")
		pts, err := exper.Sweep(exper.SweepConfig{
			Ds:        dGrid(dmax),
			Algos:     []exper.Algo{exper.AlgoPBS, exper.AlgoGraphene},
			Instances: instances,
			SizeA:     sizeA,
			BaseSeed:  seed + 1,
			Run: exper.RunConfig{
				TargetSuccess: 239.0 / 240,
				MaxRounds:     3,
				GrapheneTau:   2.4,
			},
			Parallel: parallel,
			Progress: progress,
		})
		if err != nil {
			return err
		}
		exper.PrintTable(os.Stdout, pts, false)
	}

	if all || exp == "fig3" || exp == "fig5" {
		ran = true
		fmt.Println("\n=== Figures 3 & 5: PBS vs PinSketch/WP (p0 = 0.99; Fig. 5 = 256-bit IDs) ===")
		pts, err := exper.Sweep(exper.SweepConfig{
			Ds:        dGrid(dmax),
			Algos:     []exper.Algo{exper.AlgoPBS, exper.AlgoPinSketchWP},
			Instances: instances,
			SizeA:     sizeA,
			BaseSeed:  seed + 2,
			Run:       exper.RunConfig{MaxRounds: 3},
			Parallel:  parallel,
			Progress:  progress,
		})
		if err != nil {
			return err
		}
		exper.PrintTable(os.Stdout, pts, true)
	}

	if all || exp == "fig4" {
		ran = true
		d := 10000
		if d > dmax {
			d = dmax
		}
		fmt.Printf("\n=== Figure 4: PBS vs δ at d = %d (p0 = 0.99, r = 3) ===\n", d)
		pts, err := exper.DeltaSweep(d, []int{3, 6, 9, 12, 15, 18, 21, 24, 27, 30}, sizeA, instances, seed+3)
		if err != nil {
			return err
		}
		fmt.Printf("%8s %13s %13s %13s %13s\n", "delta", "success", "comm KB", "encode s", "decode s")
		for _, p := range pts {
			fmt.Printf("%8d %13.4f %13.3f %13.5f %13.6f\n",
				p.Delta, p.Point.SuccessRate, p.Point.CommKB, p.Point.EncodeSec, p.Point.DecodeSec)
		}
	}

	if all || exp == "table1" {
		ran = true
		fmt.Println("\n=== Table 1 (App. H): success-probability lower bounds, d=1000, δ=5, r=3 ===")
		exper.PrintTable1(os.Stdout, 1000, 5, 3, 0.99)
	}

	if all || exp == "table2" {
		ran = true
		fmt.Println("\n=== Table 2 (App. J.1): empirical pmf of rounds required (unlimited rounds) ===")
		fmt.Printf("%10s %8s %8s %8s %8s %10s\n", "d", "r=1", "r=2", "r=3", "r=4+", "avg")
		for _, d := range dGrid(dmax) {
			pmf, err := exper.RoundsPMF(d, sizeA, instances, seed+4)
			if err != nil {
				return err
			}
			row := [4]float64{}
			avg := 0.0
			for r, p := range pmf {
				if r < 3 {
					row[r] = p
				} else {
					row[3] += p
				}
				avg += float64(r+1) * p
			}
			fmt.Printf("%10d %8.3f %8.3f %8.3f %8.3f %10.2f\n", d, row[0], row[1], row[2], row[3], avg)
		}
	}

	if all || exp == "sec52" {
		ran = true
		fmt.Println("\n=== §5.2: optimal per-group communication vs round budget r (paper: 591/402/318/288) ===")
		rows, err := exper.Sec52(1000, 5, 4, 0.99, 32)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("r=%d: n=%d t=%d comm=%d bits\n", r.R, (1<<r.M)-1, r.T, r.CommBits)
		}
	}

	if all || exp == "sec53" {
		ran = true
		fmt.Println("\n=== §5.3: expected proportion of d reconciled per round (paper: 0.962, 0.0380, 3.61e-4, 2.86e-6) ===")
		props, params, err := exper.Sec53(1000, 5, 3, 0.99, 4)
		if err != nil {
			return err
		}
		fmt.Printf("optimal params: n=%d t=%d\n", params.N(), params.T)
		for i, p := range props {
			fmt.Printf("round %d: %.6g\n", i+1, p)
		}
	}

	if all || exp == "appB" || exp == "appb" {
		ran = true
		fmt.Println("\n=== Appendix B: set-difference-cardinality estimators (accuracy vs bytes) ===")
		ds := []int{100, 1000}
		if dmax < 1000 {
			ds = []int{100}
		}
		pts, err := exper.EstimatorComparison(ds, sizeA, instances, seed+5)
		if err != nil {
			return err
		}
		fmt.Printf("%10s %8s %10s %10s %10s %10s\n", "estimator", "d", "bytes", "mean d̂/d", "RMS err", "coverage")
		for _, p := range pts {
			fmt.Printf("%10s %8d %10d %10.3f %10.3f %10.3f\n",
				p.Name, p.D, p.CommBytes, p.MeanRel, p.RMSRel, p.Coverage)
		}
	}

	if all || exp == "sec23" {
		ran = true
		fmt.Println("\n=== §2.3 exception probabilities (d=5 balls into n=255 bins) ===")
		oc := markovOccupancy()
		fmt.Printf("ideal case:            %.4f   (paper: ~0.96)\n", oc.Ideal)
		fmt.Printf("type (I) exception:    %.4f   (paper: ~0.04)\n", oc.TypeI)
		fmt.Printf("type (II) exception:   %.3g   (paper: 1.52e-4)\n", oc.TypeII)
		fmt.Printf("fake element passes:   %.3g   (paper: ~6e-7)\n", oc.TypeII/255)
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func markovOccupancy() markov.OccupancyProbs {
	return markov.Occupancy(5, 255)
}
