package pbs

import (
	"context"
	"net"
	"testing"

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
		setA, err := NewSet(p.A, WithOptions(opt))
		if err != nil {
			t.Fatal(err)
		}
		setB, err := NewSet(p.B, WithOptions(opt))
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := net.Pipe()
		iSide := &teeRW{ReadWriter: ca}
		rSide := &teeRW{ReadWriter: cb}
		respErr := make(chan error, 1)
		go func() {
			defer cb.Close()
			respErr <- setB.Respond(context.Background(), rSide, WithAdaptive(adaptive))
		}()
		res, err := setA.Sync(context.Background(), iSide,
			WithFastSync(true), WithAdaptive(adaptive))
		ca.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-respErr; err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("adaptive=%v: incomplete after %d rounds", adaptive, res.Rounds)
		}
		assertSameSet(t, res.Difference, p.Diff)
		if !adaptive && res.Replans != 0 {
			t.Fatalf("adaptive off reported %d re-planned rounds", res.Replans)
		}

		iFrames := parseStream(t, iSide.bytes())
		if len(iFrames) == 0 || iFrames[0].Type != msgHelloV1 {
			t.Fatalf("adaptive=%v: initiator opened with %v", adaptive, frameTypes(iFrames))
		}
		hello, err := parseFastHello(iFrames[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if hello.wantAdaptive != adaptive {
			t.Fatalf("adaptive=%v: hello wantAdaptive=%v", adaptive, hello.wantAdaptive)
		}
		rFrames := parseStream(t, rSide.bytes())
		if len(rFrames) == 0 || rFrames[0].Type != msgHelloReplyV1 {
			t.Fatalf("adaptive=%v: responder answered with %v", adaptive, frameTypes(rFrames))
		}
		reply, err := parseFastHelloReply(rFrames[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if reply.adaptive != adaptive {
			t.Fatalf("adaptive=%v: reply granted adaptive=%v", adaptive, reply.adaptive)
		}
	}
}

// TestAdaptiveLegacyWrappersUnchanged verifies the pre-Set wrappers never
// negotiate adaptive mode: a SyncInitiator exchange puts no adaptive offer
// on the wire regardless of any Set-level default.
func TestAdaptiveLegacyWrappersUnchanged(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 50, Seed: 85})
	opt := &Options{Seed: 86}
	ca, cb := net.Pipe()
	iSide := &teeRW{ReadWriter: ca}
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- SyncResponder(p.B, cb, opt)
	}()
	res, err := SyncInitiator(p.A, iSide, opt)
	ca.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-respErr; err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("legacy sync incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
	for _, f := range parseStream(t, iSide.bytes()) {
		if f.Type == msgHelloV1 {
			hello, err := parseFastHello(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if hello.wantAdaptive {
				t.Fatal("legacy wrapper offered adaptive mode on the wire")
			}
		}
	}
}
