package pbs

import (
	"bytes"
	"testing"

	"pbs/internal/frame"
	"pbs/internal/workload"
)

// frameBytes serializes frames the way the wire does.
func frameBytes(frames []Frame) []byte {
	var b []byte
	for _, f := range frames {
		b = frame.Append(b, f.Type, f.Payload)
	}
	return b
}

// TestSessionEngineWireEquivalence drives the same classic reconciliation
// two ways — by stepping InitiatorSession/ResponderSession directly, and
// through the Set API (Set.Sync against Set.Respond over a pipe, with a
// WithOnDelta observer installed) — and requires byte-identical streams in
// both directions plus identical results. This is the redesign's contract:
// the engine IS the protocol, every surface only moves frames, and the
// streaming-delta observer never perturbs the wire. TestWireGolden holds
// the same fixture to its absolute bytes.
func TestSessionEngineWireEquivalence(t *testing.T) {
	for _, strong := range []bool{false, true} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 3000, D: 80, Seed: 51})
		opt := &Options{Seed: 52, StrongVerify: strong}

		is, opening := classicInitiator(t, p.A, opt)
		ssB, err := NewSharedSet(p.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		iStream, rStream := driveEngine(t, is, opening, ssB.NewSession())
		engRes := is.Result()
		if engRes == nil {
			t.Fatal("engine produced no result")
		}

		var streamed []uint64
		res, sent, received := teeSync(t, mustSet(t, p.A, WithOptions(*opt)), mustSet(t, p.B, WithOptions(*opt)),
			WithOnDelta(func(elems []uint64, round int) {
				streamed = append(streamed, elems...)
			}))
		if !bytes.Equal(sent, iStream) {
			t.Fatalf("strong=%v: Set.Sync wire stream diverges from engine frames (%d vs %d bytes)",
				strong, len(sent), len(iStream))
		}
		if !bytes.Equal(received, rStream) {
			t.Fatalf("strong=%v: Set.Respond wire stream diverges from engine frames (%d vs %d bytes)",
				strong, len(received), len(rStream))
		}
		if len(res.Difference) != len(engRes.Difference) ||
			res.Complete != engRes.Complete ||
			res.Rounds != engRes.Rounds ||
			res.WireBytes != engRes.WireBytes ||
			res.PayloadBytes != engRes.PayloadBytes ||
			res.EstimatorBytes != engRes.EstimatorBytes ||
			res.EstimatedD != engRes.EstimatedD {
			t.Fatalf("strong=%v: Set result %+v != engine result %+v", strong, res, engRes)
		}
		// The streamed deltas must reconstruct the final difference exactly.
		assertSameSet(t, streamed, res.Difference)
	}
}

func TestInitiatorSessionClosedStep(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 200, D: 3, Seed: 53})
	opt := &Options{Seed: 54}
	is, opening := classicInitiator(t, p.A, opt)
	ssB, err := NewSharedSet(p.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs := ssB.NewSession()
	driveEngine(t, is, opening, rs)
	if _, _, err := is.Step(frame.MsgRoundReply, nil); err == nil {
		t.Fatal("closed initiator session accepted a frame")
	}
	if _, _, err := rs.Step(frame.MsgRound, nil); err == nil {
		t.Fatal("closed responder session accepted a frame")
	}
}
