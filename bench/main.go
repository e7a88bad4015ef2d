// Command bench is the repository's benchmark: five closed-loop sync
// workloads against a real pbs.Server on TCP loopback, in one process.
// See README.md in this directory and BENCHMARK.json at the repository
// root for the contract it reports against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

const (
	outDir = "bench/out"
	tmpDir = ".bench_build/tmp"
)

// benchmarkFile is the subset of BENCHMARK.json the harness reads: the run
// length, and each end-to-end metric's direction and bound for -selfcheck.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// report is the last line of a single-workload run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or \"all\" (each in a fresh child process)")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 0, "measured-phase length (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: traced ladder run reporting the per-layer metrics; 0: end-to-end metrics")
		syncs     = flag.Int("syncs", 0, "run exactly this many syncs instead of -seconds, so counters repeat exactly")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatal("run from the repository root: %v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *selfcheck:
		os.Exit(selfCheck(bf, *seed, *seconds, *syncs))
	case *name == "all":
		if _, ok := runAll(*seed, *seconds, *syncs, *trace); !ok {
			os.Exit(1)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		os.Exit(runOne(w, *seed, *seconds, *syncs, *trace != 0))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its header, one line
// per metric, and the JSON report as the last line.
func runOne(w workload, seed uint64, seconds float64, syncs int, trace bool) int {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("# pbs bench: workload=%s seed=%d seconds=%g trace=%t commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		w.name, seed, seconds, trace, gitCommit("."), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("# closed loop, %d client(s), one process; traffic crosses host loopback (127.0.0.1), never a real link\n", w.clients)
	if la := loadAvg1(); la > float64(runtime.NumCPU())/2 {
		fmt.Printf("# WARNING: 1-minute load average %.2f exceeds nproc/2; timings will be noisy\n", la)
	}

	res, err := runWorkload(runConfig{
		w: w, seed: seed, seconds: seconds, syncs: syncs, trace: trace,
		tmpDir: tmpDir, outDir: outDir,
		log: func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) },
	})
	if err != nil && res == nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if !trace {
		fmt.Printf("# measured %.2fs, %d syncs, set-up x%d, tail quantile p%g\n", res.MeasuredS, res.Attempted, res.SetupReps, res.TailQ*100)
	}
	rep := report{
		Correct:   err == nil && res.Failed == 0 && len(res.Violations) == 0,
		Attempted: max(res.Attempted, 1),
		Failed:    res.Failed,
		Metrics:   make(map[string]metricValue, len(res.Metrics)),
	}
	for _, m := range res.Metrics {
		fmt.Printf("%s %s %.6g %s n=%d\n", w.name, m.Name, m.Value, m.Unit, m.N)
		rep.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	for _, v := range res.Violations {
		fmt.Printf("# INVALID RUN: %s\n", v)
	}
	if err != nil {
		fmt.Printf("# INVALID RUN: %v\n", err)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fatal("%v", jerr)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process each, so set-up time
// and peak memory are the workload's own, relays the children's output, and
// writes the collected reports to bench/out/results.json.
func runAll(seed uint64, seconds float64, syncs, trace int) (map[string]report, bool) {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	reports := make(map[string]report, len(workloads))
	ok := true
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-syncs", fmt.Sprint(syncs), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fatal("%v", err)
		}
		if err := cmd.Start(); err != nil {
			fatal("%v", err)
		}
		var last string
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		werr := cmd.Wait()
		var rep report
		if jerr := json.Unmarshal([]byte(last), &rep); jerr != nil {
			fmt.Println(last)
			fmt.Fprintf(os.Stderr, "bench: %s printed no report (%v)\n", w.name, werr)
			ok = false
			continue
		}
		if werr != nil || !rep.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: invalid run (%d of %d failed)\n", w.name, rep.Failed, rep.Attempted)
			ok = false
		}
		reports[w.name] = rep
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing results.json: %v\n", err)
		ok = false
	}
	return reports, ok
}

// selfCheck runs the whole benchmark twice on the same build and prints,
// per workload and end-to-end metric, the relative difference between the
// two runs beside the metric's bound. It returns non-zero on any breach.
func selfCheck(bf *benchmarkFile, seed uint64, seconds float64, syncs int) int {
	first, ok1 := runAll(seed, seconds, syncs, 0)
	second, ok2 := runAll(seed, seconds, syncs, 0)
	fmt.Printf("# selfcheck: two runs of the same build, seed %d\n", seed)
	fmt.Printf("# %-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse-by", "bound")
	breaches := 0
	for _, w := range workloads {
		for _, spec := range bf.EndToEnd {
			a, b := first[w.name].Metrics[spec.Name].Value, second[w.name].Metrics[spec.Name].Value
			if a == 0 {
				fmt.Printf("%-18s %-22s missing\n", w.name, spec.Name)
				breaches++
				continue
			}
			// How much worse the second run reads than the first, as a
			// share of the first: the quantity a bound limits.
			worse := (b - a) / a
			if spec.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > spec.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				w.name, spec.Name, a, b, 100*worse, 100*spec.Bound, verdict)
		}
	}
	if !ok1 || !ok2 {
		fmt.Println("# selfcheck: a run was invalid")
		return 1
	}
	if breaches > 0 {
		fmt.Printf("# selfcheck: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("# selfcheck: every metric within its bound")
	return 0
}
