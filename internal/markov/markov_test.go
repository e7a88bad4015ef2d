package markov

import (
	"math"
	"math/rand"
	"testing"
)

func TestTransitionRowsSumToOne(t *testing.T) {
	c := MustChain(127, 13)
	for i := 0; i <= c.T; i++ {
		var sum float64
		for j := 0; j <= c.T; j++ {
			sum += c.TransitionProb(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %.12f", i, sum)
		}
	}
}

func TestTransitionAgainstMonteCarlo(t *testing.T) {
	// Empirically throw i balls into n bins and count bad balls; the
	// empirical distribution must match M(i, ·).
	const n = 63
	const tcap = 10
	c := MustChain(n, tcap)
	rng := rand.New(rand.NewSource(1))
	for _, i := range []int{1, 2, 5, 9} {
		const trials = 200000
		counts := make([]int, i+1)
		for tr := 0; tr < trials; tr++ {
			var bins [n + 1]int
			for b := 0; b < i; b++ {
				bins[rng.Intn(n)+1]++
			}
			bad := 0
			for _, occ := range bins {
				if occ > 1 {
					bad += occ
				}
			}
			counts[bad]++
		}
		for j := 0; j <= i; j++ {
			got := float64(counts[j]) / trials
			want := c.TransitionProb(i, j)
			se := math.Sqrt(want*(1-want)/trials) + 1e-9
			if math.Abs(got-want) > 6*se+0.002 {
				t.Errorf("i=%d j=%d: MC %.5f vs model %.5f", i, j, got, want)
			}
		}
	}
}

func TestSingleBallAlwaysGood(t *testing.T) {
	c := MustChain(255, 5)
	if got := c.TransitionProb(1, 0); got != 1 {
		t.Errorf("one ball must always reconcile: %.6f", got)
	}
	if got := c.SuccessProb(1, 1); got != 1 {
		t.Errorf("SuccessProb(1,1) = %.6f", got)
	}
}

func TestTwoBallCollisionProbability(t *testing.T) {
	// Two balls collide with probability exactly 1/n.
	const n = 127
	c := MustChain(n, 5)
	if got, want := c.TransitionProb(2, 2), 1.0/n; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(2->2) = %.9f, want %.9f", got, want)
	}
	if got, want := c.TransitionProb(2, 0), 1-1.0/n; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(2->0) = %.9f, want %.9f", got, want)
	}
	// Odd counts of bad balls are impossible from a fresh throw... actually
	// j=1 is impossible: a bad bin holds >= 2 balls.
	if got := c.TransitionProb(2, 1); got != 0 {
		t.Errorf("P(2->1) = %.9f, want 0", got)
	}
}

func TestIdealCaseMatchesBirthdayFormula(t *testing.T) {
	// M(x, 0) = prod_{k=1}^{x-1} (1 - k/n), §2.2.1.
	const n = 255
	c := MustChain(n, 8)
	for _, x := range []int{1, 2, 5, 8} {
		want := 1.0
		for k := 1; k < x; k++ {
			want *= 1 - float64(k)/n
		}
		if got := c.TransitionProb(x, 0); math.Abs(got-want) > 1e-9 {
			t.Errorf("x=%d: ideal-case prob %.6f, want %.6f", x, got, want)
		}
	}
}

func TestPaperExampleD5N255(t *testing.T) {
	// §1.3.1: d=5, n=255: ideal case probability ~0.96.
	c := MustChain(255, 5)
	if got := c.TransitionProb(5, 0); math.Abs(got-0.9610) > 0.002 {
		t.Errorf("ideal-case probability = %.4f, want ~0.961", got)
	}
}

func TestSuccessProbMonotoneInRounds(t *testing.T) {
	c := MustChain(127, 13)
	for x := 1; x <= 13; x++ {
		prev := 0.0
		for r := 1; r <= 6; r++ {
			p := c.SuccessProb(x, r)
			if p < prev-1e-12 {
				t.Errorf("SuccessProb(%d, %d) decreased: %.6f -> %.6f", x, r, prev, p)
			}
			prev = p
		}
		if prev < 0.999 {
			t.Errorf("x=%d: success prob after 6 rounds only %.6f", x, prev)
		}
	}
}

func TestSuccessProbBoundaries(t *testing.T) {
	c := MustChain(127, 13)
	if c.SuccessProb(0, 1) != 1 {
		t.Error("zero differences should be success probability 1")
	}
	if c.SuccessProb(14, 3) != 0 {
		t.Error("x > t must return 0 (Appendix D convention)")
	}
	if c.SuccessProb(5, 0) != 0 {
		t.Error("zero rounds with nonzero x must be 0")
	}
}

func TestBinomialPMF(t *testing.T) {
	// Exact small cases.
	if got := BinomialPMF(4, 0.5, 2); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("B(4,0.5,2) = %.12f", got)
	}
	// Sums to 1.
	var sum float64
	for k := 0; k <= 50; k++ {
		sum += BinomialPMF(50, 0.13, k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pmf sums to %.12f", sum)
	}
	// Large n stability: Binomial(1e6, 1/2e5) near its mean 5.
	p := BinomialPMF(1_000_000, 1.0/200_000, 5)
	// Poisson(5) approximation: 5^5 e^-5/5! = 0.17547
	if math.Abs(p-0.17547) > 0.002 {
		t.Errorf("large-n pmf = %.5f, want ~0.1755", p)
	}
	// Degenerate p.
	if BinomialPMF(10, 0, 0) != 1 || BinomialPMF(10, 0, 1) != 0 {
		t.Error("p=0 degenerate case")
	}
	if BinomialPMF(10, 1, 10) != 1 || BinomialPMF(10, 1, 9) != 0 {
		t.Error("p=1 degenerate case")
	}
}

// TestTable1Cells reproduces Table 1 (Appendix H): d=1000, δ=5, g=200,
// r=3. In the region the optimizer cares about (n ≥ 127) our framework
// matches the paper within ~0.01; the large-n plateaus of each t row —
// where the split-failure tail dominates — match within a few thousandths.
// The n = 63 column is a documented deviation (the paper is more
// pessimistic there; see EXPERIMENTS.md), so it is asserted loosely and
// only on feasibility agreement.
func TestTable1Cells(t *testing.T) {
	cases := []struct {
		m    uint
		tt   int
		want float64
		tol  float64
	}{
		{7, 13, 0.991, 0.008}, // the darkened optimal cell
		{8, 11, 0.991, 0.008},
		{7, 10, 0.927, 0.05},
		{9, 12, 0.999, 0.002},
		{11, 10, 0.977, 0.005}, // t=10 plateau
		{11, 8, 0.350, 0.005},  // t=8 plateau
		{10, 9, 0.861, 0.01},   // t=9 plateau
		{11, 11, 0.996, 0.002}, // t=11 plateau
		{7, 8, 0.255, 0.12},
	}
	for _, c := range cases {
		n := (uint64(1) << c.m) - 1
		ch := MustChain(n, c.tt)
		got := ch.LowerBound(1000, 200, 3)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("bound(n=%d, t=%d) = %.4f, want %.3f±%.3f", n, c.tt, got, c.want, c.tol)
		}
	}
}

// TestTable1FeasibilityAgreement: the cells the paper highlights as meeting
// p0 = 99% must be feasible in our model too, and the clearly infeasible
// cells must stay infeasible.
func TestTable1FeasibilityAgreement(t *testing.T) {
	feasible := [][2]uint64{{127, 13}, {255, 11}, {511, 11}, {2047, 11}, {255, 12}, {511, 12}}
	for _, c := range feasible {
		if b := MustChain(c[0], int(c[1])).LowerBound(1000, 200, 3); b < 0.99 {
			t.Errorf("bound(%d, %d) = %.4f, paper marks it feasible", c[0], c[1], b)
		}
	}
	infeasible := [][2]uint64{{63, 8}, {127, 8}, {2047, 8}, {63, 9}, {2047, 10}}
	for _, c := range infeasible {
		if b := MustChain(c[0], int(c[1])).LowerBound(1000, 200, 3); b >= 0.99 {
			t.Errorf("bound(%d, %d) = %.4f, paper marks it infeasible", c[0], c[1], b)
		}
	}
}

// TestOptimizerPaperInstance: the §5.1/App. H instance (d=1000, δ=5, r=3,
// p0=0.99). The paper selects (n=127, t=13); our slightly different tail
// calibration selects the same bitmap size with t within [11, 13]
// (112–126 objective bits — within 11% of the paper's 126).
func TestOptimizerPaperInstance(t *testing.T) {
	p, err := Optimize(1000, 5, 3, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("optimal params: m=%d t=%d obj=%d bound=%.4f (paper: m=7, t=13, obj=126)",
		p.M, p.T, p.BitsPerGroup, p.Bound)
	if p.M != 7 {
		t.Errorf("optimal bitmap degree m = %d, want 7 (n=127)", p.M)
	}
	if p.T < 11 || p.T > 13 {
		t.Errorf("optimal t = %d, want within [11, 13]", p.T)
	}
	if p.Bound < 0.99 {
		t.Errorf("bound = %.4f < p0", p.Bound)
	}
}

// TestSec52CommunicationTrend reproduces the §5.2 claim: the optimal
// per-group communication overhead decreases in r, sharply until r=3 and
// only slightly after. Full overhead = objective + δ·log|U| + log|U|.
func TestSec52CommunicationTrend(t *testing.T) {
	const sigBits = 32
	const delta = 5
	var comm [5]int
	for r := 1; r <= 4; r++ {
		p, err := Optimize(1000, delta, r, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		comm[r] = p.BitsPerGroup + delta*sigBits + sigBits
	}
	t.Logf("per-group comm bits for r=1..4: %v (paper: 591, 402, 318, 288)", comm[1:])
	if !(comm[1] > comm[2] && comm[2] > comm[3] && comm[3] >= comm[4]) {
		t.Errorf("communication should decrease with r: %v", comm[1:])
	}
	// r=4 matches the paper exactly (n=63, t=11 → 96+192 = 288 bits); r=3
	// lands within ~5% of the paper's 318 (our tail calibration admits
	// t=11 at n=127 where the paper required t=13).
	if comm[3] < 300 || comm[3] > 330 {
		t.Errorf("r=3 comm = %d, want ~318 (within [300, 330])", comm[3])
	}
	if comm[4] != 288 {
		t.Errorf("r=4 comm = %d, want 288", comm[4])
	}
	// The r1->r3 drop must dwarf the r3->r4 drop (sweet-spot claim).
	if (comm[1] - comm[3]) < 4*(comm[3]-comm[4]) {
		t.Errorf("r=3 does not look like a sweet spot: %v", comm[1:])
	}
}

// TestSec53RoundProportions reproduces §5.3: with d=1000, n=127, t=13 the
// expected proportions reconciled in rounds 1..4 are 0.962, 0.0380,
// 3.61e-4, 2.86e-6.
func TestSec53RoundProportions(t *testing.T) {
	c := MustChain(127, 13)
	props := c.RoundProportions(1000, 200, 4)
	want := []float64{0.962, 0.0380, 3.61e-4, 2.86e-6}
	reltol := []float64{0.01, 0.08, 0.25, 0.5}
	for i := range want {
		if math.Abs(props[i]-want[i]) > want[i]*reltol[i] {
			t.Errorf("round %d proportion = %.6g, want %.6g", i+1, props[i], want[i])
		}
	}
}

func TestCumulativeReconciledMonotone(t *testing.T) {
	c := MustChain(127, 13)
	for x := 1; x <= 13; x++ {
		prev := 0.0
		for k := 1; k <= 5; k++ {
			f := c.CumulativeReconciled(x, k)
			if f < prev-1e-12 || f > 1+1e-12 {
				t.Errorf("x=%d k=%d: cumulative fraction %.6f invalid", x, k, f)
			}
			prev = f
		}
	}
}

func TestBoundTableShape(t *testing.T) {
	ts := []int{8, 9, 10}
	ms := []uint{6, 7, 8}
	tab := BoundTable(1000, 5, 3, ts, ms)
	if len(tab) != 3 || len(tab[0]) != 3 {
		t.Fatal("table shape wrong")
	}
	// Bound should be monotone nondecreasing in both t and n.
	for i := 0; i < 3; i++ {
		for j := 1; j < 3; j++ {
			if tab[i][j] < tab[i][j-1]-1e-9 {
				t.Errorf("bound not monotone in n at t=%d", ts[i])
			}
		}
	}
	for j := 0; j < 3; j++ {
		for i := 1; i < 3; i++ {
			if tab[i][j] < tab[i-1][j]-1e-9 {
				t.Errorf("bound not monotone in t at m=%d", ms[j])
			}
		}
	}
}

func TestNewChainErrors(t *testing.T) {
	if _, err := NewChain(1, 1); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewChain(63, 0); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := NewChain(10, 11); err == nil {
		t.Error("t>n should fail")
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(0, 5, 3, 0.99); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := Optimize(100, 5, 3, 1.5); err == nil {
		t.Error("p0>1 should fail")
	}
}

func TestNumGroups(t *testing.T) {
	if NumGroups(1000, 5) != 200 {
		t.Error("g should be 200")
	}
	if NumGroups(2, 5) != 1 {
		t.Error("g floor of 1")
	}
	if NumGroups(13, 5) != 3 {
		t.Error("g should round")
	}
}

func TestChainCaching(t *testing.T) {
	a := MustChain(127, 13)
	b := MustChain(127, 13)
	if a != b {
		t.Error("chains should be cached")
	}
}

// TestSplitOverloadProbability reproduces the §3.2 design-choice analysis:
// conditional on a BCH decoding failure (group holds > t = 13 elements),
// how likely is a split to leave some child still over capacity? Our
// union-bound computation reproduces the paper's 2-way number exactly
// (0.0012); for the 3-way split we get 1.3e-5 where the paper quotes
// 9.5e-10 (see EXPERIMENTS.md) — both support the same design decision:
// 3-way splitting is roughly two orders of magnitude safer than 2-way.
func TestSplitOverloadProbability(t *testing.T) {
	p3 := SplitOverloadProbability(1000, 200, 13, 3)
	p2 := SplitOverloadProbability(1000, 200, 13, 2)
	t.Logf("2-way overload %.3g (paper 0.0012), 3-way %.3g (paper 9.5e-10)", p2, p3)
	if p2 < 8e-4 || p2 > 1.6e-3 {
		t.Errorf("2-way overload = %.3g, paper says ~0.0012", p2)
	}
	if p3 > 1e-4 {
		t.Errorf("3-way overload = %.3g, should be tiny", p3)
	}
	if p2 < p3*50 {
		t.Errorf("2-way split must be far riskier: %g vs %g", p2, p3)
	}
}

// TestPlanMemoDeterministic checks that memoizing Optimize changes nothing:
// for every d in [1, 20000] the answer served from the cache equals the one
// computed afresh — across the cache's bound, where it starts over.
func TestPlanMemoDeterministic(t *testing.T) {
	for d := 1; d <= 20000; d++ {
		want := optimize(d, 5, 3, 0.99)
		for pass := 0; pass < 2; pass++ { // a miss (or a hit on a d seen above), then a hit
			got, err := Optimize(d, 5, 3, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("d=%d pass %d: cached %+v, computed %+v", d, pass, got, want)
			}
		}
		optimizeMemo.Lock()
		size := len(optimizeMemo.m)
		optimizeMemo.Unlock()
		if size > optimizeMemoSize {
			t.Fatalf("d=%d: cache holds %d entries, bound is %d", d, size, optimizeMemoSize)
		}
	}
	// Different remaining arguments are different keys.
	a, _ := Optimize(500, 5, 3, 0.99)
	b, _ := Optimize(500, 5, 2, 0.99)
	c, _ := Optimize(500, 7, 3, 0.99)
	if a == b || a == c {
		t.Fatalf("distinct arguments served one cached plan: %+v %+v %+v", a, b, c)
	}
}
