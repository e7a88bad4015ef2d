package estimator

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pbs/internal/workload"
)

func makePair(t testing.TB, d int, seed int64) *workload.Pair {
	t.Helper()
	p, err := workload.Generate(workload.Config{
		UniverseBits: 32, SizeA: 3000, D: d, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestToWUnbiasedEmpirically(t *testing.T) {
	// Average many independent single-sketch estimates; the mean must
	// approach d (unbiasedness, App. A). Var of a single sketch is
	// 2d²−2d, so with trials T the sample-mean sd is d·sqrt(2/T).
	const d = 50
	p := makePair(t, d, 1)
	const trials = 1200
	var sum float64
	for i := 0; i < trials; i++ {
		tw := MustNewToW(1, uint64(i)+1000)
		ya := tw.Sketch(p.A)
		yb := tw.Sketch(p.B)
		e, err := tw.Estimate(ya, yb)
		if err != nil {
			t.Fatal(err)
		}
		sum += e
	}
	mean := sum / trials
	sd := float64(d) * math.Sqrt(2.0/trials)
	if math.Abs(mean-d) > 6*sd {
		t.Errorf("ToW mean = %.2f, want ~%d (+/- %.2f)", mean, d, 6*sd)
	}
}

func TestToWVarianceMatchesTheory(t *testing.T) {
	// Var[d̂] with one sketch is 2d²−2d (App. A). Check within broad bounds.
	const d = 30
	p := makePair(t, d, 2)
	const trials = 1500
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		tw := MustNewToW(1, uint64(i)+5000)
		e, _ := tw.Estimate(tw.Sketch(p.A), tw.Sketch(p.B))
		sum += e
		sumsq += e * e
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	want := float64(2*d*d - 2*d)
	if variance < want/2 || variance > want*2 {
		t.Errorf("ToW variance = %.0f, theory %.0f", variance, want)
	}
}

func TestToWAccuracyWith128Sketches(t *testing.T) {
	// With ℓ=128 the relative sd is sqrt(2/128) ≈ 12.5%; the estimate
	// should be well within 60% of truth on any single run.
	for _, d := range []int{10, 100, 1000} {
		p := makePair(t, d, int64(d))
		tw := MustNewToW(DefaultSketches, 42)
		e, _ := tw.Estimate(tw.Sketch(p.A), tw.Sketch(p.B))
		if e < float64(d)*0.4 || e > float64(d)*1.6 {
			t.Errorf("d=%d: estimate %.1f too far off", d, e)
		}
	}
}

func TestConservativeCoverage(t *testing.T) {
	// Pr[d <= 1.38·d̂] should be >= ~99% at ℓ=128 (§6.2).
	const d = 200
	p := makePair(t, d, 3)
	covered, trials := 0, 150
	for i := 0; i < trials; i++ {
		tw := MustNewToW(DefaultSketches, uint64(i))
		e, _ := tw.Estimate(tw.Sketch(p.A), tw.Sketch(p.B))
		if float64(d) <= DefaultGamma*e {
			covered++
		}
	}
	if float64(covered)/float64(trials) < 0.96 {
		t.Errorf("coverage %d/%d below expectation", covered, trials)
	}
}

func TestToWIdenticalSetsEstimateZero(t *testing.T) {
	p := makePair(t, 0, 4)
	tw := MustNewToW(32, 9)
	e, _ := tw.Estimate(tw.Sketch(p.A), tw.Sketch(p.B))
	if e != 0 {
		t.Errorf("identical sets: estimate %.2f, want 0", e)
	}
}

func TestToWBitsAccounting(t *testing.T) {
	tw := MustNewToW(128, 0)
	// |S| = 10^6: each sketch needs ceil(log2(2e6+1)) = 21 bits; 128·21 =
	// 2688 bits = 336 bytes — the paper's number.
	if got := tw.Bits(1_000_000); got != 2688 {
		t.Errorf("Bits(1e6) = %d, want 2688 (336 bytes)", got)
	}
}

func TestToWErrors(t *testing.T) {
	if _, err := NewToW(0, 1); err == nil {
		t.Error("l=0 should fail")
	}
	tw := MustNewToW(4, 1)
	if _, err := tw.Estimate(make([]int64, 3), make([]int64, 4)); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestConservativeD(t *testing.T) {
	if ConservativeD(10, 1.38) != 14 {
		t.Errorf("ConservativeD(10,1.38) = %d", ConservativeD(10, 1.38))
	}
	if ConservativeD(0, 1.38) != 1 {
		t.Error("floor of 1 expected")
	}
}

func TestEstimateDOneShot(t *testing.T) {
	p := makePair(t, 100, 12)
	tw := MustNewToW(DefaultSketches, 5)
	d, bits, err := tw.EstimateD(p.A, p.B, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	if d < 40 || d > 400 {
		t.Errorf("EstimateD = %d for true d=100", d)
	}
	if bits != tw.Bits(len(p.A)) {
		t.Errorf("bits = %d", bits)
	}
}

func benchmarkToWSketch(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	set := make([]uint64, n)
	for i := range set {
		set[i] = rng.Uint64() | 1
	}
	tw := MustNewToW(DefaultSketches, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.Sketch(set)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
}

func BenchmarkToWSketch10k(b *testing.B)  { benchmarkToWSketch(b, 10_000) }
func BenchmarkToWSketch100k(b *testing.B) { benchmarkToWSketch(b, 100_000) }

// TestToWSketchFansOutExactly holds the whole-set Sketch, serial below
// sketchFanOut and split across goroutines above it, to the element-by-
// element Add it must equal bit for bit, at sizes on both sides of the
// floor and at part boundaries that do not divide evenly.
func TestToWSketchFansOutExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tw := MustNewToW(DefaultSketches, 31)
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, sketchFanOut - 1, sketchFanOut, sketchFanOut + 1, 5*sketchFanOut + 3} {
		set := make([]uint64, n)
		want := make([]int64, tw.L())
		for i := range set {
			set[i] = rng.Uint64() >> 32
			tw.Add(want, set[i])
		}
		for _, procs := range []int{1, 3, 4} {
			runtime.GOMAXPROCS(procs)
			if got := tw.Sketch(set); !slices.Equal(got, want) {
				t.Fatalf("n=%d GOMAXPROCS=%d: Sketch differs from element-by-element Add", n, procs)
			}
		}
	}
}

func TestToWIncrementalAddRemove(t *testing.T) {
	// A sketch maintained element-by-element with Add/Remove must be
	// bit-identical to re-sketching the final set from scratch — the
	// linearity property a long-lived set handle relies on.
	tw := MustNewToW(32, 99)
	rng := rand.New(rand.NewSource(5))
	live := make(map[uint64]struct{})
	ys := make([]int64, tw.L())
	for i := 0; i < 2000; i++ {
		x := uint64(rng.Uint32() | 1)
		if _, ok := live[x]; ok {
			delete(live, x)
			tw.Remove(ys, x)
		} else {
			live[x] = struct{}{}
			tw.Add(ys, x)
		}
	}
	final := make([]uint64, 0, len(live))
	for x := range live {
		final = append(final, x)
	}
	want := tw.Sketch(final)
	for i := range want {
		if ys[i] != want[i] {
			t.Fatalf("sketch slot %d: incremental %d != fresh %d", i, ys[i], want[i])
		}
	}
	// Removing everything must return the sketch to all-zero exactly.
	for x := range live {
		tw.Remove(ys, x)
	}
	for i, y := range ys {
		if y != 0 {
			t.Fatalf("sketch slot %d = %d after removing every element; want 0", i, y)
		}
	}
}
