package core

import (
	"testing"

	"pbs/internal/wire"
	"pbs/internal/workload"
)

// driveAdaptive runs a session with adaptive re-planning on both ends.
func driveAdaptive(t *testing.T, a, b []uint64, plan Plan) *Result {
	t.Helper()
	alice, err := NewAlice(a, plan)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewBob(b, plan)
	if err != nil {
		t.Fatal(err)
	}
	alice.EnableAdaptive()
	bob.EnableAdaptive()
	res, err := Drive(alice, bob, plan.MaxRounds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAdaptiveRoundsReconcileExactly(t *testing.T) {
	// Underestimate d four-fold so round 1 overflows capacity and the
	// session runs through splits and multiple adaptively re-planned
	// rounds.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 20000, D: 400, Seed: 7})
	plan := planFor(t, 100, 3)
	res := driveAdaptive(t, p.A, p.B, plan)
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Stats.Rounds)
	}
	if res.Stats.Rounds < 2 {
		t.Fatalf("scenario did not exercise adaptive rounds (rounds=%d)", res.Stats.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
}

// Adaptive re-planning must never fall behind the static plan: no extra
// rounds, and wire bytes within the per-round adaptive-header overhead
// plus noise (the big adaptive savings — right-sizing round 1 from a
// learned prior — are pinned at the pbs layer by
// TestAdaptiveNoWorseThanFixed; this pins the re-planned rounds themselves).
func TestAdaptiveNoWorseThanStaticReplay(t *testing.T) {
	for _, tc := range []struct {
		d, planD int
	}{
		{100, 100},   // right-sized small plan (m=6): re-planning can only tie
		{1000, 1000}, // right-sized large plan: survivors re-plan cheaper
		{1000, 250},  // underestimated: splits fall back to the static plan
	} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 50000, D: tc.d, Seed: int64(tc.d)})
		plan := planFor(t, tc.planD, uint64(tc.d)*3+1)

		static, err := Reconcile(p.A, p.B, plan)
		if err != nil {
			t.Fatal(err)
		}
		adaptive := driveAdaptive(t, p.A, p.B, plan)

		if !static.Complete || !adaptive.Complete {
			t.Fatalf("d=%d planD=%d: incomplete session (static=%v adaptive=%v)",
				tc.d, tc.planD, static.Complete, adaptive.Complete)
		}
		assertSameSet(t, adaptive.Difference, p.Diff)
		if adaptive.Stats.Rounds > static.Stats.Rounds {
			t.Errorf("d=%d planD=%d: adaptive took %d rounds, static %d",
				tc.d, tc.planD, adaptive.Stats.Rounds, static.Stats.Rounds)
		}
		aw, sw := adaptive.Stats.TotalWireBytes(), static.Stats.TotalWireBytes()
		if slack := sw/100 + 16; aw > sw+slack {
			t.Errorf("d=%d planD=%d: adaptive wire bytes %d > static %d + %d slack",
				tc.d, tc.planD, aw, sw, slack)
		}
	}
}

// Round 1 must be bit-identical with and without adaptive mode: it is
// built before the peer's capabilities are known (fast-sync speculation),
// so the adaptive header only ever applies from round 2.
func TestAdaptiveRoundOneUnchanged(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 5000, D: 50, Seed: 11})
	plan := planFor(t, 50, 21)

	plain, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	adaptive.EnableAdaptive()

	m1, err := plain.BuildRound()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := adaptive.BuildRound()
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatal("adaptive mode changed round-1 bytes")
	}
}

// A hostile peer must not be able to demand absurd per-round parameters.
func TestAdaptiveRejectsHostileHeaders(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 1000, D: 10, Seed: 3})
	plan := planFor(t, 10, 5)

	cases := []struct {
		name string
		m, t uint64
	}{
		{"huge bitmap", 25, 100},
		{"tiny bitmap", 1, 1},
		{"capacity above n/2", 8, 200},
		{"zero capacity", 8, 0},
		{"capacity above cap", 16, 1 << 14},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bob, err := NewBob(p.B, plan)
			if err != nil {
				t.Fatal(err)
			}
			bob.EnableAdaptive()
			w := wire.NewWriter()
			w.WriteUvarint(2) // round 2: adaptive header expected
			w.WriteUvarint(tc.m)
			w.WriteUvarint(tc.t)
			w.WriteUvarint(0) // no scopes; the header must already reject
			if _, err := bob.HandleRound(w.Bytes()); err == nil {
				t.Fatalf("Bob accepted %s", tc.name)
			}
		})
	}
}

func TestAdaptiveReplanCounters(t *testing.T) {
	// Right-sized plan at d=1000: round 2 is survivor-only and re-plans
	// away from the static parameters on both ends.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 50000, D: 1000, Seed: 1000})
	plan := planFor(t, 1000, 3001)
	alice, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewBob(p.B, plan)
	if err != nil {
		t.Fatal(err)
	}
	alice.EnableAdaptive()
	bob.EnableAdaptive()
	res, err := Drive(alice, bob, plan.MaxRounds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Stats.Rounds)
	}
	if res.Stats.Rounds < 2 {
		t.Fatalf("scenario finished in %d round(s); no replans to count", res.Stats.Rounds)
	}
	if alice.Replans() == 0 {
		t.Error("alice counted no replans across a multi-round adaptive session")
	}
	if alice.Replans() != bob.Replans() {
		t.Errorf("replan counters disagree: alice %d, bob %d", alice.Replans(), bob.Replans())
	}
}
