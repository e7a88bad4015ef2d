package main

import (
	"regexp"
	"slices"
	"testing"
)

// testRun runs one workload at about 1/100 scale for a fixed number of
// syncs and fails the test on any failed sync or ledger violation.
func testRun(t *testing.T, w workload, seed uint64, trace bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := runWorkload(runConfig{
		w: w.scaled(100), seed: seed, seconds: 1, syncs: 40, trace: trace,
		tmpDir: dir, outDir: dir, log: t.Logf,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.Failed != 0 || len(res.Violations) != 0 {
		t.Fatalf("%s: %d of %d syncs failed, violations %q", w.name, res.Failed, res.Attempted, res.Violations)
	}
	return res
}

// specNames and sortedNames render metrics as "name unit", sorted, so one
// comparison covers both.
func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name + " " + s.Unit
	}
	slices.Sort(names)
	return names
}

func sortedNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name + " " + m.Unit
	}
	slices.Sort(names)
	return names
}

// TestReportsWhatBenchmarkFileDeclares runs every workload untraced and
// traced and checks that the printed metric names, units and workload names are
// exactly the ones BENCHMARK.json declares, in both directions.
func TestReportsWhatBenchmarkFileDeclares(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared, ours []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(declared, ours) {
		t.Errorf("workloads: BENCHMARK.json declares %q, the harness runs %q", declared, ours)
	}
	for _, w := range workloads {
		for _, tc := range []struct {
			trace bool
			want  []string
		}{{false, specNames(bf.EndToEnd)}, {true, specNames(bf.PerLayer)}} {
			res := testRun(t, w, 7, tc.trace)
			if got := sortedNames(res.Metrics); !slices.Equal(got, tc.want) {
				t.Errorf("%s trace=%t: printed metrics %q, BENCHMARK.json declares %q", w.name, tc.trace, got, tc.want)
			}
			for _, m := range res.Metrics {
				if !valid.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is not made of [A-Za-z0-9_.-]", w.name, m.Name)
				}
			}
		}
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q is not made of [A-Za-z0-9_.-]", w.name)
		}
	}
}

// TestCountersRepeatForASeed checks that the inputs are a function of the
// seed alone: the same seed twice moves exactly the same bytes through
// exactly the same rounds and cold loads, another seed does not.
func TestCountersRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := testRun(t, w, 11, false), testRun(t, w, 11, false), testRun(t, w, 12, false)
		if a.WireBytes != b.WireBytes || a.Rounds != b.Rounds || a.DiffElems != b.DiffElems ||
			a.ColdLoads != b.ColdLoads || a.Evictions != b.Evictions {
			t.Errorf("%s: seed 11 twice: bytes %d/%d rounds %d/%d diff %d/%d cold loads %d/%d evictions %d/%d",
				w.name, a.WireBytes, b.WireBytes, a.Rounds, b.Rounds, a.DiffElems, b.DiffElems,
				a.ColdLoads, b.ColdLoads, a.Evictions, b.Evictions)
		}
		if a.WireBytes == c.WireBytes {
			t.Errorf("%s: seeds 11 and 12 moved the same %d bytes", w.name, a.WireBytes)
		}
	}
}
