package pbs

import (
	"context"
	"errors"
	"net"
	"sort"
	"testing"

	"pbs/internal/workload"
)

func assertSameSet(t *testing.T, got, want []uint64) {
	t.Helper()
	g := append([]uint64(nil), got...)
	w := append([]uint64(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(g) != len(w) {
		t.Fatalf("size mismatch: %d vs %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("element mismatch at %d", i)
		}
	}
}

// mustSet builds a Set or fails the test.
func mustSet(t testing.TB, elems []uint64, opts ...Option) *Set {
	t.Helper()
	s, err := NewSet(elems, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reconcile learns a △ b in process through two fresh Set handles.
func reconcile(a, b []uint64, opts ...Option) (*Result, error) {
	sa, err := NewSet(a, opts...)
	if err != nil {
		return nil, err
	}
	sb, err := NewSet(b, opts...)
	if err != nil {
		return nil, err
	}
	return sa.Reconcile(context.Background(), sb)
}

func TestReconcileFullPipeline(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 20000, D: 150, Seed: 1})
	res, err := reconcile(p.A, p.B, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	if res.EstimatedD < 60 || res.EstimatedD > 600 {
		t.Errorf("estimate %d wildly off for d=150", res.EstimatedD)
	}
	if res.EstimatorBytes < 200 || res.EstimatorBytes > 400 { // 336B at |S|=1e6; smaller here
		t.Errorf("estimator cost %dB; the paper's configuration costs ~336B", res.EstimatorBytes)
	}
	if res.PayloadBytes <= 0 || res.WireBytes < res.PayloadBytes {
		t.Errorf("accounting broken: payload=%d wire=%d", res.PayloadBytes, res.WireBytes)
	}
}

func TestReconcileKnownD(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 5000, D: 40, Seed: 3})
	res, err := reconcile(p.A, p.B, WithSeed(4), WithKnownD(40))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	if res.EstimatorBytes != 0 {
		t.Error("KnownD must skip the estimator")
	}
	assertSameSet(t, res.Difference, p.Diff)
}

func TestReconcileNilOptions(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 10, Seed: 5})
	res, err := reconcile(p.A, p.B)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
}

func TestOptionsSigBitsBounds(t *testing.T) {
	// The valid signature range is [8, 64]; both ends must work and both
	// out-of-range neighbours must be rejected up front.
	small := []uint64{1, 2, 3, 40, 50, 60, 200, 250}
	for _, bad := range []uint{1, 7, 65} {
		if _, err := reconcile(small, small[:4], WithSigBits(bad), WithKnownD(4)); err == nil {
			t.Errorf("SigBits=%d accepted; want error", bad)
		}
		if _, err := PlanFor(4, &Options{SigBits: bad}); err == nil {
			t.Errorf("PlanFor with SigBits=%d accepted; want error", bad)
		}
	}
	// SigBits=8: the whole universe is {1..255}.
	res, err := reconcile(small, small[:4], WithSigBits(8), WithKnownD(4))
	if err != nil || !res.Complete {
		t.Fatalf("SigBits=8: err=%v complete=%v", err, res != nil && res.Complete)
	}
	assertSameSet(t, res.Difference, small[4:])
	// SigBits=64: full-width signatures, elements near the top of the range.
	wide := []uint64{1, ^uint64(0), ^uint64(0) - 7, 1 << 63, 12345}
	res, err = reconcile(wide, wide[:2], WithSigBits(64), WithKnownD(3))
	if err != nil || !res.Complete {
		t.Fatalf("SigBits=64: err=%v", err)
	}
	assertSameSet(t, res.Difference, wide[2:])
	// Elements wider than SigBits must be rejected.
	if _, err := reconcile([]uint64{1 << 40}, []uint64{1}, WithSigBits(32), WithKnownD(1)); err == nil {
		t.Error("element wider than SigBits accepted")
	}
}

func TestOptionsKnownDUnderestimate(t *testing.T) {
	// The caller asserts |A△B| <= KnownD but is off by 10x. BCH decoding
	// fails in overloaded groups, triggering the §3.2 splits; with an
	// unlimited round budget the protocol must still converge to the exact
	// difference.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 8000, D: 200, Seed: 31})
	res, err := reconcile(p.A, p.B, WithSeed(32), WithKnownD(20))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds despite unlimited budget", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	if res.Rounds <= 1 {
		t.Errorf("a 10x underestimate finished in %d round(s); splits cannot have been exercised", res.Rounds)
	}
}

func TestOptionsMaxRoundsExhaustion(t *testing.T) {
	// One round against a badly undersized plan cannot finish: the result
	// must report Complete=false rather than an error or a wrong answer.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 8000, D: 500, Seed: 33})
	res, err := reconcile(p.A, p.B, WithSeed(34), WithKnownD(10), WithMaxRounds(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("claimed completion with KnownD=10, d=500, MaxRounds=1")
	}
	if res.Rounds != 1 {
		t.Errorf("ran %d rounds, budget was 1", res.Rounds)
	}
	// Whatever was learned must be a subset of the true difference: the
	// checksum layer never lets fake elements through on verified groups.
	truth := make(map[uint64]struct{}, len(p.Diff))
	for _, x := range p.Diff {
		truth[x] = struct{}{}
	}
	for _, x := range res.Difference {
		if _, ok := truth[x]; !ok {
			t.Fatalf("partial result contains non-difference element %#x", x)
		}
	}
}

func TestOptionsStrongVerifyMismatch(t *testing.T) {
	// Both StrongVerify failure surfaces: a well-formed digest that simply
	// disagrees must surface ErrVerificationFailed, while a digest of the
	// wrong length is protocol corruption and must fail with a different,
	// descriptive error.
	cases := []struct {
		name       string
		digest     []byte
		wantVerify bool // expect ErrVerificationFailed specifically
	}{
		{"zero digest", make([]byte, 32), true},
		{"truncated digest", make([]byte, 16), false},
		{"oversized digest", make([]byte, 33), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 5, Seed: 35})
			ca, cb := net.Pipe()
			go func() {
				defer cb.Close()
				hackedResponder(p.B, cb, tc.digest)
			}()
			_, err := mustSet(t, p.A, WithSeed(11), WithStrongVerify(true)).Sync(context.Background(), ca)
			ca.Close()
			if tc.wantVerify {
				if !errors.Is(err, ErrVerificationFailed) {
					t.Fatalf("want ErrVerificationFailed, got %v", err)
				}
			} else {
				if err == nil || errors.Is(err, ErrVerificationFailed) {
					t.Fatalf("want a malformed-digest error, got %v", err)
				}
			}
		})
	}
}

func TestOptionsParallelismEquivalence(t *testing.T) {
	// The public API must return the same difference for any Parallelism.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 6000, D: 80, Seed: 37})
	for _, par := range []int{0, 1, 2, 8} {
		res, err := reconcile(p.A, p.B, WithSeed(38), WithKnownD(80), WithParallelism(par))
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		if !res.Complete {
			t.Fatalf("Parallelism=%d: incomplete", par)
		}
		assertSameSet(t, res.Difference, p.Diff)
	}
}

func TestLargeSignatures(t *testing.T) {
	// 48-bit signatures exercise the non-default universe width.
	p := workload.MustGenerate(workload.Config{UniverseBits: 48, SizeA: 3000, D: 25, Seed: 10})
	res, err := reconcile(p.A, p.B, WithSeed(11), WithSigBits(48), WithKnownD(25))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
}
