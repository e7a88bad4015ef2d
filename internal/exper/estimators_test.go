package exper

import (
	"testing"

	"pbs/internal/estimator"
	"pbs/internal/workload"
)

// makePair draws a 3000-element pair of sets d apart.
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

func TestStrataOrderOfMagnitude(t *testing.T) {
	for _, d := range []int{64, 512, 2048} {
		p := makePair(t, d, int64(d)*7)
		s := NewStrata(11)
		e, err := s.Estimate(s.Sketch(p.A), s.Sketch(p.B))
		if err != nil {
			t.Fatal(err)
		}
		if e < float64(d)/4 || e > float64(d)*4 {
			t.Errorf("strata d=%d: estimate %.0f out of 4x band", d, e)
		}
	}
}

func TestStrataExactWhenSmall(t *testing.T) {
	// With d small, every stratum decodes and the estimate is exact.
	p := makePair(t, 5, 8)
	s := NewStrata(12)
	e, err := s.Estimate(s.Sketch(p.A), s.Sketch(p.B))
	if err != nil {
		t.Fatal(err)
	}
	if e != 5 {
		t.Errorf("small-d strata estimate = %.0f, want exactly 5", e)
	}
}

func TestStrataBitsLargerThanToW(t *testing.T) {
	// The paper's point (App. B): ToW is far more space-efficient.
	s := NewStrata(0)
	tw := estimator.MustNewToW(estimator.DefaultSketches, 0)
	if s.Bits(32) <= tw.Bits(1_000_000) {
		t.Errorf("strata bits %d should exceed ToW bits %d", s.Bits(32), tw.Bits(1_000_000))
	}
}

func TestMinWiseRoughAccuracy(t *testing.T) {
	const d = 2000 // min-wise is poor at tiny J differences; use larger d
	p := makePair(t, d, 10)
	mw, err := NewMinWise(512, 13)
	if err != nil {
		t.Fatal(err)
	}
	e, err := mw.Estimate(mw.Sketch(p.A), mw.Sketch(p.B), len(p.A), len(p.B))
	if err != nil {
		t.Fatal(err)
	}
	if e < float64(d)/5 || e > float64(d)*5 {
		t.Errorf("minwise estimate %.0f for d=%d", e, d)
	}
}

func TestMinWiseIdenticalSets(t *testing.T) {
	p := makePair(t, 0, 11)
	mw, _ := NewMinWise(64, 1)
	e, _ := mw.Estimate(mw.Sketch(p.A), mw.Sketch(p.B), len(p.A), len(p.B))
	if e != 0 {
		t.Errorf("identical sets: %f", e)
	}
}

func TestMinWiseErrors(t *testing.T) {
	if _, err := NewMinWise(0, 0); err == nil {
		t.Error("k=0 should fail")
	}
	mw, _ := NewMinWise(4, 0)
	if _, err := mw.Estimate(make([]uint64, 3), make([]uint64, 4), 1, 1); err == nil {
		t.Error("length mismatch should fail")
	}
}
