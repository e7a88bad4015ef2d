package pbs

import (
	"math/rand"
	"testing"

	"pbs/internal/frame"
	"pbs/internal/workload"
)

// TestAdaptiveColdFallback pins the controller's fallback ladder: a cold
// prior speculates at the stock default, an explicit WithKnownD always
// wins, and adaptive-off handles follow the legacy last-difference
// heuristic exactly even when the prior is warm.
func TestAdaptiveColdFallback(t *testing.T) {
	s, err := NewSet(hostedBase(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	cold := &setConfig{}
	if got := s.adaptiveSpeculativeD(cold); got != DefaultSpeculativeD {
		t.Fatalf("cold prior speculated %d, want DefaultSpeculativeD=%d", got, DefaultSpeculativeD)
	}
	known := &setConfig{opt: Options{KnownD: 77}}
	if got := s.adaptiveSpeculativeD(known); got != 77 {
		t.Fatalf("KnownD=77 speculated %d, want 77", got)
	}

	// Warm the handle, then check the two opt-out paths defer to the
	// legacy heuristic bit-for-bit.
	for i := 0; i < 6; i++ {
		s.prior.observe(400)
	}
	s.specPrior.Store(401)
	off := &setConfig{adaptiveOff: true}
	if got, want := s.adaptiveSpeculativeD(off), s.speculativeD(off.opt); got != want {
		t.Fatalf("adaptive-off speculated %d, legacy heuristic says %d", got, want)
	}
	if got, want := s.adaptiveSpeculativeD(known), s.speculativeD(known.opt); got != want {
		t.Fatalf("warm KnownD speculated %d, legacy heuristic says %d", got, want)
	}
}

// TestAdaptivePriorConvergence drives the EWMA through a d 10 → 1000
// regime shift: the warm-up absorbs the small regime, the first 1000-draw
// reads as a shift (outside mean + 2σ + headroom), and after a handful of
// observations the smoothed mean has converged onto the new regime and
// 1000 is an ordinary draw again.
func TestAdaptivePriorConvergence(t *testing.T) {
	var p dhatPrior
	if _, ok := p.predict(); ok {
		t.Fatal("cold prior claimed a prediction")
	}
	if p.shifted(1000) {
		t.Fatal("cold prior reported a regime shift")
	}
	for i := 0; i < 8; i++ {
		p.observe(10)
	}
	spec, ok := p.predict()
	if !ok || spec != 10+specPredictHeadroom {
		t.Fatalf("converged small prior predicts %d (ok=%v), want %d", spec, ok, 10+specPredictHeadroom)
	}
	if !p.shifted(1000) {
		t.Fatal("d=1000 should read as a regime shift against a d=10 prior")
	}
	if p.shifted(12) {
		t.Fatal("d=12 is an ordinary draw against a d=10 prior, not a shift")
	}

	for i := 0; i < 8; i++ {
		p.observe(1000)
	}
	spec, _ = p.predict()
	// With the alpha floor at 0.25, eight observations carry the mean
	// within (0.75)^8 ≈ 10% of the way — well past 900.
	if spec < 900 || spec > 1000+specPredictHeadroom {
		t.Fatalf("EWMA failed to converge after the shift: predict=%d", spec)
	}
	if p.shifted(1000) {
		t.Fatal("converged prior still treats d=1000 as a regime shift")
	}
}

// TestAdaptiveRegimeShiftEscalation checks the speculation sizing around
// the learned prior: the mean-sized bound is floored at the stock default,
// an in-spread latest outcome does not move it, and an out-of-spread
// outcome escalates the bound to that outcome until the EWMA catches up.
func TestAdaptiveRegimeShiftEscalation(t *testing.T) {
	s, err := NewSet(hostedBase(2, 200))
	if err != nil {
		t.Fatal(err)
	}
	cfg := &setConfig{}
	for i := 0; i < 6; i++ {
		s.prior.observe(20)
	}
	// Small regime: mean + headroom is below the default, so the floor
	// holds the stock speculation.
	if got := s.adaptiveSpeculativeD(cfg); got != DefaultSpeculativeD {
		t.Fatalf("small-regime speculation %d, want floor %d", got, DefaultSpeculativeD)
	}
	// An ordinary in-spread outcome leaves the bound alone.
	s.specPrior.Store(22)
	if got := s.adaptiveSpeculativeD(cfg); got != DefaultSpeculativeD {
		t.Fatalf("in-spread outcome moved speculation to %d, want %d", got, DefaultSpeculativeD)
	}
	// An outcome far outside the spread escalates to outcome + headroom.
	s.specPrior.Store(5001)
	if got, want := s.adaptiveSpeculativeD(cfg), uint64(5000+specPredictHeadroom); got != want {
		t.Fatalf("regime-shift outcome speculated %d, want %d", got, want)
	}

	// Large regime: once the mean itself clears the default, speculation
	// follows mean + headroom, not the floor.
	var big Set
	big.specPrior.Store(0)
	for i := 0; i < 8; i++ {
		big.prior.observe(1000)
	}
	got := big.adaptiveSpeculativeD(cfg)
	if got < 900 || got > 1000+specPredictHeadroom {
		t.Fatalf("large-regime speculation %d, want ~mean+%d", got, specPredictHeadroom)
	}
}

// TestAdaptiveOffWireFlags pins the opt-out guarantee: with
// WithAdaptive(false) the fast hello carries no adaptive offer and the
// reply no grant, while the default negotiates both. Either way the
// exchange stays correct, and adaptive-off reports zero re-planned rounds.
func TestAdaptiveOffWireFlags(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 300, Seed: 83})
		opt := Options{Seed: 84}
		res, sent, received := teeSync(t, mustSet(t, p.A, WithOptions(opt)), mustSet(t, p.B, WithOptions(opt)),
			WithAdaptive(adaptive))
		if !res.Complete {
			t.Fatalf("adaptive=%v: incomplete after %d rounds", adaptive, res.Rounds)
		}
		assertSameSet(t, res.Difference, p.Diff)
		if !adaptive && res.Replans != 0 {
			t.Fatalf("adaptive off reported %d re-planned rounds", res.Replans)
		}

		iFrames := parseStream(t, sent)
		if len(iFrames) == 0 || iFrames[0].Type != frame.MsgHelloV1 {
			t.Fatalf("adaptive=%v: initiator opened with %v", adaptive, frameTypes(iFrames))
		}
		hello, err := frame.ParseHello(iFrames[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if hello.WantAdaptive != adaptive {
			t.Fatalf("adaptive=%v: hello WantAdaptive=%v", adaptive, hello.WantAdaptive)
		}
		rFrames := parseStream(t, received)
		if len(rFrames) == 0 || rFrames[0].Type != frame.MsgHelloReplyV1 {
			t.Fatalf("adaptive=%v: responder answered with %v", adaptive, frameTypes(rFrames))
		}
		reply, err := frame.ParseHelloReply(rFrames[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Adaptive != adaptive {
			t.Fatalf("adaptive=%v: reply granted adaptive=%v", adaptive, reply.Adaptive)
		}
	}
}

// TestAdaptiveNoWorseThanFixed is the adaptive controller's end-to-end
// claim: over real wire syncs (Set.Sync against Set.Respond on net.Pipe),
// a warm adaptive handle with no hand-set KnownD spends no more mean wire
// bytes and no more mean rounds per sync than the paper-fixed
// configuration — a fresh WithAdaptive(false) handle per sync, stock
// DefaultSpeculativeD — at every d. Both arms sync the same peers, which
// drift ±25% around d between syncs (real churn is not constant, and the
// spread exercises the prior's variance term). The full run (seed 1,
// |A| = 20000, 8 syncs) is the README's adaptive table; go test -v -run
// TestAdaptiveNoWorseThanFixed prints it.
func TestAdaptiveNoWorseThanFixed(t *testing.T) {
	const seed = 1
	ds, sizeA, syncs := []int{10, 100, 1000, 10000}, 20000, 8
	if testing.Short() {
		ds, sizeA, syncs = []int{10, 100}, 8000, 6
	}
	for _, d := range ds {
		opt := Options{Seed: uint64(seed + d)}
		rng := rand.New(rand.NewSource(int64(seed + d*7919)))
		base := make([]uint64, 0, sizeA)
		seen := make(map[uint64]struct{}, sizeA)
		for len(base) < sizeA {
			x := uint64(rng.Uint32())
			if _, ok := seen[x]; ok {
				continue
			}
			seen[x] = struct{}{}
			base = append(base, x)
		}
		warm, err := NewSet(base, WithOptions(opt))
		if err != nil {
			t.Fatal(err)
		}
		syncArm := func(initiator *Set, peer, diff []uint64, adaptive bool) *Result {
			t.Helper()
			responder, err := NewSet(peer, WithOptions(opt))
			if err != nil {
				t.Fatal(err)
			}
			res, _, _ := teeSync(t, initiator, responder, WithAdaptive(adaptive))
			if !res.Complete {
				t.Fatalf("d=%d adaptive=%v: incomplete after %d rounds", d, adaptive, res.Rounds)
			}
			assertSameSet(t, res.Difference, diff)
			return res
		}

		var fixedB, adaptiveB, fixedR, adaptiveR, replans float64
		for j := 0; j < syncs; j++ {
			dj := max(d-d/4+rng.Intn(d/2+1), 1)
			peer, diff := driftedPeer(base, dj, rng)
			res := syncArm(warm, peer, diff, true)
			adaptiveB += float64(res.WireBytes)
			adaptiveR += float64(res.Rounds)
			replans += float64(res.Replans)

			fixed, err := NewSet(base, WithOptions(opt))
			if err != nil {
				t.Fatal(err)
			}
			res = syncArm(fixed, peer, diff, false)
			fixedB += float64(res.WireBytes)
			fixedR += float64(res.Rounds)
		}
		n := float64(syncs)
		t.Logf("d=%-6d fixed %8.0f B %.2f rounds | adaptive %8.0f B %.2f rounds (%.2f replans/sync)",
			d, fixedB/n, fixedR/n, adaptiveB/n, adaptiveR/n, replans/n)
		if adaptiveB > fixedB {
			t.Errorf("d=%d: adaptive put %.0f B/sync on the wire, paper-fixed %.0f", d, adaptiveB/n, fixedB/n)
		}
		if adaptiveR > fixedR {
			t.Errorf("d=%d: adaptive took %.2f rounds/sync, paper-fixed %.2f", d, adaptiveR/n, fixedR/n)
		}
	}
}

// driftedPeer derives a peer at symmetric difference exactly d from a:
// d/2 random members removed, d-d/2 fresh non-members added. It returns
// the peer and the ground-truth difference.
func driftedPeer(a []uint64, d int, rng *rand.Rand) (peer, diff []uint64) {
	drop := d / 2
	in := make(map[uint64]struct{}, len(a))
	for _, x := range a {
		in[x] = struct{}{}
	}
	dropped := make(map[int]struct{}, drop)
	for _, i := range rng.Perm(len(a))[:drop] {
		dropped[i] = struct{}{}
		diff = append(diff, a[i])
	}
	peer = make([]uint64, 0, len(a)-drop+d-drop)
	for i, x := range a {
		if _, ok := dropped[i]; !ok {
			peer = append(peer, x)
		}
	}
	for len(peer) < len(a)-drop+d-drop {
		x := uint64(rng.Uint32())
		if _, ok := in[x]; ok {
			continue
		}
		in[x] = struct{}{}
		peer = append(peer, x)
		diff = append(diff, x)
	}
	return peer, diff
}
