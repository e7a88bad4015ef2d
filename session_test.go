package pbs

import (
	"testing"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/frame"
	"pbs/internal/workload"
)

// newSharedSet validates set once under o and prepares it for concurrent
// sessions: a view built without a Server or a Set, for engine tests.
func newSharedSet(set []uint64, o *Options) (*sharedSet, error) {
	opt, err := o.withDefaultsValidated()
	if err != nil {
		return nil, err
	}
	tow, err := estimator.NewToW(opt.EstimatorSketches, opt.Seed^towSeedTweak)
	if err != nil {
		return nil, err
	}
	snap, err := core.NewSnapshot(set, opt.coreConfig())
	if err != nil {
		return nil, err
	}
	return &sharedSet{opt: opt, snap: snap, tow: tow, meta: metaFor(tow, opt.Seed, snap.Elements())}, nil
}

// frameBytes serializes frames the way the wire does.
func frameBytes(frames []frame.Frame) []byte {
	var b []byte
	for _, f := range frames {
		b = frame.Append(b, f.Type, f.Payload)
	}
	return b
}

// respondTo is the stepped responder Set.Respond runs: a session against
// ss under the options ss was prepared with.
func respondTo(ss *sharedSet) *responderSession {
	return &responderSession{opt: ss.opt, shared: ss}
}

// helloInitiator starts an initiator session on local and returns it with
// its opening msgHelloV1. The speculation is sized for specD, and the hello
// offers adaptive mode, as Set.Sync does by default.
func helloInitiator(t *testing.T, local []uint64, opt *Options, name string, specD uint64) (*initiatorSession, []frame.Frame) {
	t.Helper()
	ss, err := newSharedSet(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	is, opening, err := ss.newInitiator(ss.opt, initiatorCall{name: name, specD: specD, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	return is, opening
}

func TestInitiatorSessionClosedStep(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 200, D: 3, Seed: 53})
	opt := &Options{Seed: 54}
	is, opening := helloInitiator(t, p.A, opt, "", 1)
	ssB, err := newSharedSet(p.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs := respondTo(ssB)
	driveEngine(t, is, opening, rs)
	if _, _, err := is.step(frame.MsgRoundReply, nil); err == nil {
		t.Fatal("closed initiator session accepted a frame")
	}
	if _, _, err := rs.step(frame.MsgRound, nil); err == nil {
		t.Fatal("closed responder session accepted a frame")
	}
}
