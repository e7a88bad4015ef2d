package pbs

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/frame"
	"pbs/internal/workload"
)

// runSync drives a full wire session (Set.Sync against Set.Respond) over
// net.Pipe and returns the initiator's result plus the responder's error.
func runSync(t *testing.T, a, b []uint64, opts ...Option) (*Result, error, error) {
	t.Helper()
	initiator, responder := mustSet(t, a, opts...), mustSet(t, b, opts...)
	ca, cb := net.Pipe()
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- responder.Respond(context.Background(), cb)
	}()
	res, initErr := initiator.Sync(context.Background(), ca)
	ca.Close()
	return res, initErr, <-respErr
}

func TestSyncFullProtocol(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 10000, D: 80, Seed: 1})
	res, initErr, respErr := runSync(t, p.A, p.B, WithSeed(2))
	if initErr != nil || respErr != nil {
		t.Fatalf("init=%v resp=%v", initErr, respErr)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	assertSameSet(t, res.Difference, p.Diff)
	if res.EstimatorBytes <= 0 {
		t.Error("estimation phase bytes not accounted")
	}
	if res.EstimatedD < 30 || res.EstimatedD > 300 {
		t.Errorf("EstimatedD = %d for d=80", res.EstimatedD)
	}
}

func TestSyncStrongVerify(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 5000, D: 30, Seed: 3})
	res, initErr, respErr := runSync(t, p.A, p.B, WithSeed(4), WithStrongVerify(true))
	if initErr != nil || respErr != nil {
		t.Fatalf("init=%v resp=%v", initErr, respErr)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	assertSameSet(t, res.Difference, p.Diff)
}

func TestSyncIdenticalSets(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 0, Seed: 5})
	res, initErr, respErr := runSync(t, p.A, p.A, WithSeed(6), WithStrongVerify(true))
	if initErr != nil || respErr != nil {
		t.Fatalf("init=%v resp=%v", initErr, respErr)
	}
	if !res.Complete || len(res.Difference) != 0 {
		t.Fatal("identical sets should reconcile to empty difference")
	}
}

func TestSyncBidirectionalDifference(t *testing.T) {
	p := workload.MustGenerate(workload.Config{
		UniverseBits: 32, SizeA: 5000, D: 50, BOnlyFrac: 0.4, Seed: 7,
	})
	res, initErr, respErr := runSync(t, p.A, p.B, WithSeed(8))
	if initErr != nil || respErr != nil {
		t.Fatalf("init=%v resp=%v", initErr, respErr)
	}
	assertSameSet(t, res.Difference, p.Diff)
}

func TestSyncSeedMismatchDetected(t *testing.T) {
	// Different seeds mean different hash functions: the protocol cannot
	// silently produce a wrong difference — checksums keep failing and the
	// round budget runs out (Complete=false), or strong verify trips.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 10, Seed: 9})
	responder := mustSet(t, p.B, WithSeed(111), WithMaxRounds(3))
	ca, cb := net.Pipe()
	respDone := make(chan error, 1)
	go func() {
		defer cb.Close()
		respDone <- responder.Respond(context.Background(), cb)
	}()
	res, err := mustSet(t, p.A, WithSeed(222), WithMaxRounds(3)).Sync(context.Background(), ca)
	ca.Close()
	<-respDone
	if err == nil && res.Complete {
		// Completing correctly with mismatched seeds is impossible unless
		// the difference was trivially empty.
		if len(res.Difference) != 0 || len(p.Diff) != 0 {
			t.Fatal("mismatched seeds must not yield a 'complete' wrong answer")
		}
	}
}

func TestSyncStrongVerifyCatchesCorruption(t *testing.T) {
	// Simulate the false-verification corner: the responder claims a
	// different set at verification time. Run a responder whose verify
	// digest is computed over a mutated set by giving the responder a set
	// that differs only after reconciliation would pass... simplest
	// faithful check: mismatched StrongVerify seeds make digests disagree,
	// which must surface as ErrVerificationFailed rather than success.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 5, Seed: 10})
	ca, cb := net.Pipe()
	go func() {
		defer cb.Close()
		// Responder with a tampered verification digest: emulate by
		// serving a set with one extra element only for the verify phase.
		// Easiest faithful emulation: run the normal responder on a set
		// with one extra element and a plan seeded identically; the
		// protocol rounds will fix the difference (it is a real difference)
		// so instead we tamper the seed only for msethash by flipping
		// StrongVerify seed via Options.Seed — not possible per-phase, so
		// this test uses a raw responder on a *different* set: rounds will
		// reconcile to that set, and verification then passes. The real
		// corruption case is exercised in unit form in msethash tests; here
		// we only pin that a digest mismatch propagates as
		// ErrVerificationFailed using a hacked responder below.
		corrupt := make([]byte, 32)
		for i := range corrupt {
			corrupt[i] = byte(i + 1)
		}
		hackedResponder(p.B, cb, corrupt)
	}()
	_, err := mustSet(t, p.A, WithSeed(11), WithStrongVerify(true)).Sync(context.Background(), ca)
	ca.Close()
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("want ErrVerificationFailed, got %v", err)
	}
}

// hackedResponder behaves like Set.Respond but answers the verification
// phase with the given digest bytes instead of the honest multiset hash,
// emulating the false-verification corner case (and, with a wrong-length
// digest, a protocol-corruption one).
func hackedResponder(set []uint64, conn net.Conn, digest []byte) {
	opt := (&Options{Seed: 11}).withDefaults()
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return
	}
	var bob *core.Bob
	for {
		typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
		if err != nil {
			return
		}
		switch typ {
		case frame.MsgEstimate:
			theirs, err := frame.DecodeSketches(payload)
			if err != nil {
				return
			}
			dhatF, err := tow.Estimate(theirs, tow.Sketch(set))
			if err != nil {
				return
			}
			dhat := uint64(math.Round(dhatF))
			plan, err := syncPlan(dhat, opt)
			if err != nil {
				return
			}
			if bob, err = core.NewBob(set, plan); err != nil {
				return
			}
			frame.WriteAll(conn, oneFrame(frame.MsgEstimateReply, binary.AppendUvarint(nil, dhat)))
		case frame.MsgRound:
			reply, err := bob.HandleRound(payload)
			if err != nil {
				return
			}
			frame.WriteAll(conn, oneFrame(frame.MsgRoundReply, reply))
		case frame.MsgVerify:
			frame.WriteAll(conn, oneFrame(frame.MsgVerifyReply, digest))
		case frame.MsgDone:
			return
		}
	}
}
