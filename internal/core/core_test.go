package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pbs/internal/workload"
)

// Reconcile runs the full multi-round PBS session between in-process
// endpoints for sets a and b under plan, and returns Alice's learned
// difference plus communication statistics. MaxRounds from the plan caps
// the exchange; zero means "run to completion". The package's tests drive
// their pairs through it; programs build Alice and Bob and call Drive.
func Reconcile(a, b []uint64, plan Plan) (*Result, error) {
	alice, err := NewAlice(a, plan)
	if err != nil {
		return nil, err
	}
	bob, err := NewBob(b, plan)
	if err != nil {
		return nil, err
	}
	return Drive(alice, bob, plan.MaxRounds)
}

func sortedU64(xs []uint64) []uint64 {
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func assertSameSet(t *testing.T, got, want []uint64) {
	t.Helper()
	g, w := sortedU64(got), sortedU64(want)
	if len(g) != len(w) {
		t.Fatalf("set size mismatch: got %d want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("set mismatch at index %d", i)
		}
	}
}

// planFor builds a plan for a known d the way the harness does.
func planFor(t testing.TB, d int, seed uint64) Plan {
	t.Helper()
	plan, err := NewPlan(d, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestReconcileSmallKnownD(t *testing.T) {
	for _, d := range []int{0, 1, 2, 5, 10} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: d, Seed: int64(d) + 1})
		plan := planFor(t, d, uint64(d)*7+1)
		res, err := Reconcile(p.A, p.B, plan)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !res.Complete {
			t.Fatalf("d=%d: reconciliation incomplete after %d rounds", d, res.Stats.Rounds)
		}
		assertSameSet(t, res.Difference, p.Diff)
	}
}

func TestReconcileMediumD(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 30000, D: 500, Seed: 99})
	plan := planFor(t, 500, 5)
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Stats.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	if res.Stats.Rounds > 4 {
		t.Errorf("took %d rounds; expected <= 4 almost surely", res.Stats.Rounds)
	}
}

func TestReconcileBidirectionalDifference(t *testing.T) {
	// Differences on both sides (not the paper's B ⊂ A setup).
	p := workload.MustGenerate(workload.Config{
		UniverseBits: 32, SizeA: 5000, D: 60, BOnlyFrac: 0.5, Seed: 123,
	})
	plan := planFor(t, 60, 9)
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
}

func TestReconcileIdenticalSets(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 0, Seed: 5})
	plan := planFor(t, 1, 2)
	res, err := Reconcile(p.A, p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Difference) != 0 {
		t.Fatalf("identical sets: complete=%v diff=%d", res.Complete, len(res.Difference))
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("identical sets should verify in 1 round, took %d", res.Stats.Rounds)
	}
}

func TestReconcileEmptySides(t *testing.T) {
	plan := planFor(t, 3, 3)
	// Alice empty: difference is all of B.
	b := []uint64{10, 20, 30}
	res, err := Reconcile(nil, b, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, b)
	// Bob empty: difference is all of A.
	res, err = Reconcile(b, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, b)
}

func TestReconcileUnderestimatedD(t *testing.T) {
	// Plan sized for d=20 but the true difference is 200: BCH decode
	// failures and splits must still converge (MaxRounds unlimited).
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 10000, D: 200, Seed: 7})
	plan := planFor(t, 20, 11)
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Stats.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
}

func TestElementValidation(t *testing.T) {
	plan := planFor(t, 1, 0)
	if _, err := NewAlice([]uint64{0}, plan); err == nil {
		t.Error("element 0 must be rejected")
	}
	if _, err := NewAlice([]uint64{1 << 40}, plan); err == nil {
		t.Error("element above the universe must be rejected")
	}
	if _, err := NewAlice([]uint64{7, 7}, plan); err == nil {
		t.Error("duplicates must be rejected")
	}
	if _, err := NewBob([]uint64{0}, plan); err == nil {
		t.Error("Bob must validate too")
	}
	if _, err := NewBob([]uint64{9, 9}, plan); err == nil {
		t.Error("Bob must reject duplicates")
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{M: 1, T: 1, Groups: 1, SigBits: 32},
		{M: 8, T: 0, Groups: 1, SigBits: 32},
		{M: 8, T: 200, Groups: 1, SigBits: 32},
		{M: 8, T: 5, Groups: 0, SigBits: 32},
		{M: 8, T: 5, Groups: 1, SigBits: 4},
	}
	for i, p := range bad {
		if _, err := NewAlice(nil, p); err == nil {
			t.Errorf("plan %d should be invalid", i)
		}
	}
}

func TestProtocolStateMachine(t *testing.T) {
	plan := planFor(t, 2, 1)
	alice, err := NewAlice([]uint64{1, 2, 3}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if alice.Done() {
		t.Fatal("fresh Alice with elements should not be done")
	}
	if err := alice.AbsorbReply(nil); err == nil {
		t.Error("AbsorbReply before BuildRound must fail")
	}
	msg, err := alice.BuildRound()
	if err != nil || msg == nil {
		t.Fatalf("BuildRound: %v", err)
	}
	if _, err := alice.BuildRound(); err == nil {
		t.Error("second BuildRound without a reply must fail")
	}
	// Malformed replies must error, not panic.
	if err := alice.AbsorbReply([]byte{}); err == nil {
		t.Error("empty reply should error")
	}
}

func TestBobRejectsGarbage(t *testing.T) {
	plan := planFor(t, 2, 1)
	bob, err := NewBob([]uint64{5, 6}, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{nil, {}, {0xFF}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF}} {
		if _, err := bob.HandleRound(msg); err == nil {
			t.Errorf("garbage message %v should error", msg)
		}
	}
}

func TestCommunicationAccounting(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 5000, D: 50, Seed: 21})
	plan := planFor(t, 50, 13)
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil || !res.Complete {
		t.Fatalf("reconcile: %v complete=%v", err, res != nil && res.Complete)
	}
	st := res.Stats
	if st.AlicePayloadBits <= 0 || st.BobPayloadBits <= 0 {
		t.Fatal("payload accounting missing")
	}
	if st.AliceWireBits < st.AlicePayloadBits || st.BobWireBits < st.BobPayloadBits {
		t.Fatal("wire bits must be at least payload bits")
	}
	// Round 1 Alice payload is exactly g sketches of t·m bits.
	g := plan.Groups
	round1 := g * plan.T * int(plan.M)
	if st.AlicePayloadBits < round1 {
		t.Fatalf("Alice payload %d below round-1 flat cost %d", st.AlicePayloadBits, round1)
	}
	// Sanity: overhead of framing should be modest (< 40% of payload).
	tot := st.AliceWireBits + st.BobWireBits
	pay := st.AlicePayloadBits + st.BobPayloadBits
	if float64(tot) > 1.4*float64(pay)+512 {
		t.Errorf("framing overhead looks too high: wire=%d payload=%d", tot, pay)
	}
}

// TestCommNearFormulaOne: for well-estimated d, the measured payload should
// be close to the Formula (1) prediction:
// g·(t·m + δ·m + δ·log|U| + log|U|) for round 1, plus small later rounds.
func TestCommNearFormulaOne(t *testing.T) {
	const d = 200
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 20000, D: d, Seed: 3})
	plan := planFor(t, d, 77)
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil || !res.Complete {
		t.Fatal("reconcile failed")
	}
	g := float64(plan.Groups)
	m := float64(plan.M)
	formula := g * (float64(plan.T)*m + 5*m + 5*32 + 32)
	got := float64(res.Stats.AlicePayloadBits + res.Stats.BobPayloadBits)
	if got < 0.8*formula || got > 1.6*formula {
		t.Errorf("payload %v bits vs formula-1 %v bits", got, formula)
	}
}

// TestMultiRoundProgress: with a tiny bitmap, collisions force extra
// rounds; the protocol must converge and stay correct.
func TestMultiRoundProgress(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 40, Seed: 31})
	plan := Plan{M: 5, T: 10, Groups: 4, Delta: 10, SigBits: 32, Seed: 17}
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Stats.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	if res.Stats.Rounds < 2 {
		t.Logf("note: expected multiple rounds with n=31 and 10 elems/group, got %d", res.Stats.Rounds)
	}
}

// TestMaxRoundsHonored: with MaxRounds=1 and adversarially tight bitmaps,
// sessions often end incomplete — but must report that truthfully and the
// partial difference must only contain true difference elements... (fake
// elements are possible in principle but filtered with probability 1−1/n;
// we assert the overwhelmingly common case across many seeds in
// TestQuickNeverWrongWhenComplete instead).
func TestMaxRoundsHonored(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 50, Seed: 41})
	plan := Plan{M: 5, T: 12, Groups: 2, Delta: 25, SigBits: 32, Seed: 3, MaxRounds: 1}
	res, err := Reconcile(p.A, p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds > 1 {
		t.Fatalf("MaxRounds=1 but ran %d rounds", res.Stats.Rounds)
	}
}

// TestQuickNeverWrongWhenComplete is the key safety property (§2.2.3,
// Theorem 1): whenever the protocol reports completion, the learned
// difference is exactly A△B.
func TestQuickNeverWrongWhenComplete(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(60)
		p, err := workload.Generate(workload.Config{
			UniverseBits: 32, SizeA: 1500 + rng.Intn(1000), D: d,
			BOnlyFrac: rng.Float64(), Seed: seed,
		})
		if err != nil {
			return false
		}
		// Deliberately fuzz the plan: wrong d estimates, small bitmaps.
		plan := Plan{
			M:       uint(5 + rng.Intn(4)),
			T:       3 + rng.Intn(12),
			Groups:  1 + rng.Intn(10),
			Delta:   5,
			SigBits: 32,
			Seed:    uint64(seed) * 31,
		}
		res, err := Reconcile(p.A, p.B, plan)
		if err != nil {
			return false
		}
		if !res.Complete {
			return true // incompleteness is allowed; wrongness is not
		}
		g, w := sortedU64(res.Difference), sortedU64(p.Diff)
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if g[i] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSuccessRateMatchesTarget: with optimizer-chosen parameters for the
// true d, at least ~p0 of sessions must complete within r rounds.
func TestSuccessRateMatchesTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const d = 100
	const trials = 60
	ok := 0
	for i := 0; i < trials; i++ {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 5000, D: d, Seed: int64(i)})
		plan, err := NewPlan(d, Config{Seed: uint64(i), MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Reconcile(p.A, p.B, plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			ok++
		}
	}
	if ok < trials-3 { // target 0.99; allow generous slack at 60 trials
		t.Errorf("only %d/%d sessions completed in 3 rounds", ok, trials)
	}
}

func TestPlanDefaults(t *testing.T) {
	plan, err := NewPlan(1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Groups != 200 {
		t.Errorf("groups = %d, want 200", plan.Groups)
	}
	if plan.M != 7 {
		t.Errorf("m = %d, want 7 (n=127)", plan.M)
	}
	if plan.SigBits != 32 || plan.Delta != 5 {
		t.Errorf("defaults not applied: %+v", plan)
	}
}

func TestScopeIDChildAndHash(t *testing.T) {
	root := newScopeID(3)
	c0 := root.child(0)
	c1 := root.child(1)
	if c0 == c1 || c0.hash() == c1.hash() {
		t.Error("children must be distinct with distinct hashes")
	}
	gc := c0.child(2)
	if len(gc.path) != 2 {
		t.Errorf("grandchild path = %q", gc.path)
	}
}

func TestScopeRoundtripWire(t *testing.T) {
	ids := []scopeID{
		makeScopeID(0, ""),
		makeScopeID(199, ""),
		makeScopeID(3, "012"),
		makeScopeID(7, "222120"),
	}
	for _, id := range ids {
		w := newTestWriter()
		writeScopeID(w, id)
		got, err := readScopeID(newTestReader(w.Bytes()))
		if err != nil {
			t.Fatalf("%+v: %v", id, err)
		}
		if got != id {
			t.Fatalf("roundtrip: got %+v want %+v", got, id)
		}
	}
}

func BenchmarkReconcileD100(b *testing.B) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 10000, D: 100, Seed: 8})
	plan, _ := NewPlan(100, Config{Seed: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Reconcile(p.A, p.B, plan)
		if err != nil || !res.Complete {
			b.Fatal("reconcile failed")
		}
	}
}
