package pbs

import (
	"context"
	"errors"
	"fmt"
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
	res := requireReconcileMatchesSync(t, p, 4, WithKnownD(40))
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
}

// requireReconcileMatchesSync reconciles p on fresh handles under seed and
// opts, twice: with Reconcile, and with a Sync over a pipe against Respond.
// Reconcile is the same engines stepped in memory, so the two must return
// the same difference, rounds, wire and estimator bytes, estimate and
// replans. PayloadBytes differs by design: Reconcile holds both endpoints
// and adds the responder's payload, which the test reads off the engine
// pair driven directly. Without KnownD in opts, Reconcile sizes its
// speculation from the ToW estimate of both sketches, so the Sync is called
// WithKnownD at that rounded d̂. It returns the Reconcile result.
func requireReconcileMatchesSync(t *testing.T, p *workload.Pair, seed uint64, opts ...Option) *Result {
	t.Helper()
	rec, err := mustSet(t, p.A, WithSeed(seed)).Reconcile(context.Background(), mustSet(t, p.B, WithSeed(seed)), opts...)
	if err != nil {
		t.Fatal(err)
	}

	a, b := mustSet(t, p.A, WithSeed(seed)), mustSet(t, p.B, WithSeed(seed))
	cfg, err := a.callConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	va, err := a.view()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.view()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opt.KnownD == 0 {
		dhatF, err := a.tow.Estimate(va.towSketch(), vb.towSketch())
		if err != nil {
			t.Fatal(err)
		}
		dhat, err := cfg.opt.boundEstimate(dhatF)
		if err != nil || dhat == 0 {
			t.Fatalf("d̂ = %d, err %v: no KnownD to call the Sync with", dhat, err)
		}
		opts = append(opts[:len(opts):len(opts)], WithKnownD(int(dhat)))
		cfg.opt.KnownD = int(dhat)
	}
	res, _, _ := teeSync(t, a, b, opts...)

	is, opening, err := va.newInitiator(cfg.opt, initiatorCall{specD: uint64(cfg.opt.KnownD), adaptive: !cfg.adaptiveOff})
	if err != nil {
		t.Fatal(err)
	}
	rs := &responderSession{opt: cfg.opt, shared: vb}
	driveEngine(t, is, opening, rs)

	assertSameSet(t, rec.Difference, res.Difference)
	type outcome struct {
		Complete                                               bool
		Rounds, WireBytes, EstimatorBytes, EstimatedD, Replans int
	}
	got := outcome{rec.Complete, rec.Rounds, rec.WireBytes, rec.EstimatorBytes, rec.EstimatedD, rec.Replans}
	want := outcome{res.Complete, res.Rounds, res.WireBytes, res.EstimatorBytes, res.EstimatedD, res.Replans}
	if got != want {
		t.Fatalf("Reconcile reports %+v, a pipe Sync %+v", got, want)
	}
	if want := res.PayloadBytes + (rs.payloadBits()+7)/8; rec.PayloadBytes != want {
		t.Fatalf("Reconcile payload %d B, want the Sync's %d B plus the responder's %d bits = %d B",
			rec.PayloadBytes, res.PayloadBytes, rs.payloadBits(), want)
	}
	return rec
}

// TestReconcileMatchesSync holds Reconcile to a pipe Sync on seeded pairs:
// at d = 10, 100 and 1000, with StrongVerify and adaptive re-planning on
// and off, under a KnownD at d (the speculation answered), one at d/10
// (declined at d ≥ 100, so the session re-plans from d̂), and none (sized
// from the estimate).
func TestReconcileMatchesSync(t *testing.T) {
	for _, d := range []int{10, 100, 1000} {
		for i := range 3 {
			p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: d, Seed: int64(1000*d + i)})
			for _, strong := range []bool{false, true} {
				for _, adaptive := range []bool{false, true} {
					for _, known := range []int{d, d / 10, 0} {
						name := fmt.Sprintf("d=%d/seed=%d/strong=%v/adaptive=%v/known=%d", d, i, strong, adaptive, known)
						t.Run(name, func(t *testing.T) {
							// WithOptions replaces every field, KnownD
							// included, so it goes first.
							opts := []Option{WithOptions(Options{Seed: 77, StrongVerify: strong}), WithAdaptive(adaptive)}
							if known > 0 {
								opts = append(opts, WithKnownD(known))
							}
							res := requireReconcileMatchesSync(t, p, 77, opts...)
							if !res.Complete {
								t.Fatalf("incomplete after %d rounds", res.Rounds)
							}
							assertSameSet(t, res.Difference, p.Diff)
						})
					}
				}
			}
		}
	}

	// MaxD bounds the estimate Reconcile sizes its plan from, as it bounds
	// the one a wire session exchanges.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 300, Seed: 300})
	if res, err := reconcile(p.A, p.B, WithSeed(77), WithMaxD(50)); err == nil {
		t.Fatalf("MaxD 50 on a d = 300 pair: complete=%v, want an error", res.Complete)
	}

	// StrongVerify compares the responder's digest with the one the learned
	// difference implies: a forged responder digest fails the session, and
	// is never read without StrongVerify.
	p = workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 20})
	for _, strong := range []bool{false, true} {
		a, b := mustSet(t, p.A, WithSeed(77)), mustSet(t, p.B, WithSeed(77))
		vb, err := b.view()
		if err != nil {
			t.Fatal(err)
		}
		vb.digestOnce.Do(func() {}) // the zero digest, which no set has
		_, err = a.Reconcile(context.Background(), b, WithStrongVerify(strong))
		if strong && !errors.Is(err, ErrVerificationFailed) {
			t.Fatalf("StrongVerify against a forged digest: err %v, want ErrVerificationFailed", err)
		}
		if !strong && err != nil {
			t.Fatalf("without StrongVerify: %v", err)
		}
	}
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

// speculationAnswered reports whether the responder answers the
// speculative round 1 that a session under opts opens with, on fresh
// handles over a and b. A KnownD the ToW estimate dwarfs (d̂ > 2·KnownD+16)
// is declined, and both sides re-plan from d̂ instead.
func speculationAnswered(t *testing.T, a, b []uint64, opts ...Option) bool {
	t.Helper()
	sa, sb := mustSet(t, a, opts...), mustSet(t, b, opts...)
	va, err := sa.view()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sb.view()
	if err != nil {
		t.Fatal(err)
	}
	opt := sa.cfg.opt
	is, opening, err := va.newInitiator(opt, initiatorCall{specD: uint64(opt.KnownD), adaptive: !sa.cfg.adaptiveOff})
	if err != nil {
		t.Fatal(err)
	}
	rs := &responderSession{opt: opt, shared: vb}
	driveEngine(t, is, opening, rs)
	return rs.specAccepted
}

func TestOptionsKnownDUnderestimate(t *testing.T) {
	// The caller asserts |A△B| <= KnownD but is off by 15x: d = 15 against
	// KnownD 1, still inside the window the responder answers (d̂ <= 18),
	// so round 1 runs under the undersized one-group plan. BCH decoding
	// fails in the overloaded group, triggering the §3.2 splits; with an
	// unlimited round budget the protocol must still converge to the exact
	// difference.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 8000, D: 15, Seed: 31})
	opts := []Option{WithSeed(32), WithKnownD(1)}
	if !speculationAnswered(t, p.A, p.B, opts...) {
		t.Fatal("the speculation was declined: the undersized plan never ran")
	}
	res, err := reconcile(p.A, p.B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds despite unlimited budget", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	if res.Rounds <= 1 {
		t.Errorf("a 15x underestimate finished in %d round(s); splits cannot have been exercised", res.Rounds)
	}
}

func TestOptionsMaxRoundsExhaustion(t *testing.T) {
	// One round against a badly undersized plan cannot finish: the result
	// must report Complete=false rather than an error or a wrong answer.
	// KnownD 1 against d = 15 is answered (d̂ <= 18), so round 1 runs under
	// the one-group plan and is the whole budget.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 8000, D: 15, Seed: 33})
	opts := []Option{WithSeed(34), WithKnownD(1), WithMaxRounds(1)}
	if !speculationAnswered(t, p.A, p.B, opts...) {
		t.Fatal("the speculation was declined: the undersized plan never ran")
	}
	res, err := reconcile(p.A, p.B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("claimed completion with KnownD=1, d=15, MaxRounds=1")
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
