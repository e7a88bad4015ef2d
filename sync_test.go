package pbs

import (
	"context"
	"errors"
	"net"
	"testing"

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
	// The false-verification corner: a responder whose hello reply carries
	// a digest that disagrees with the set the rounds reconcile to. The
	// mismatch must surface as ErrVerificationFailed rather than success.
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 5, Seed: 10})
	ca, cb := net.Pipe()
	go func() {
		defer cb.Close()
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

// hackedResponder behaves like Set.Respond but ships the given digest bytes
// in its hello reply instead of the honest multiset hash, emulating the
// false-verification corner case (and, with a wrong-length digest, a
// protocol-corruption one).
func hackedResponder(set []uint64, conn net.Conn, digest []byte) {
	ss, err := newSharedSet(set, &Options{Seed: 11})
	if err != nil {
		return
	}
	rs := respondTo(ss)
	for {
		typ, payload, err := frame.ReadInto(conn, frame.MaxFrame, nil)
		if err != nil {
			return
		}
		out, done, err := rs.Step(typ, payload)
		if err != nil || done {
			return
		}
		for i, f := range out {
			if f.Type == frame.MsgHelloReplyV1 {
				rep, _ := frame.ParseHelloReply(f.Payload)
				rep.Digest = digest
				out[i].Payload = frame.AppendHelloReply(nil, rep)
			}
		}
		frame.WriteAll(conn, out)
	}
}
