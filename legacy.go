package pbs

// The pre-Set entry points. Everything here predates the Set handle and
// remains supported with unchanged signatures and byte-identical wire
// behaviour, but none of it holds protocol logic: each function delegates
// to the Set API, the session engine, or internal/core.

import (
	"context"
	"fmt"
	"io"

	"pbs/internal/core"
)

// Reconcile learns local △ remote. It simulates both endpoints in process,
// which is the mode used by tests, examples, and the benchmark harness;
// network deployments should instead use Set.Sync / Set.Serve.
//
// Reconcile is a thin wrapper over the Set API — equivalent to building
// two throwaway Sets and calling Set.Reconcile. Callers reconciling the
// same data repeatedly should hold on to the Sets instead, which keeps the
// validated snapshot and estimator sketch warm across calls.
func Reconcile(local, remote []uint64, o *Options) (*Result, error) {
	a, err := NewSet(local, withBaseOptions(o))
	if err != nil {
		return nil, err
	}
	b, err := NewSet(remote, withBaseOptions(o))
	if err != nil {
		return nil, err
	}
	return a.Reconcile(context.Background(), b)
}

// withBaseOptions adapts a legacy *Options (possibly nil) into the
// functional-option form the Set constructors take.
func withBaseOptions(o *Options) Option {
	return func(c *setConfig) {
		if o != nil {
			c.opt = *o
		}
	}
}

// Union returns local ∪ remote given a completed reconciliation result:
// the local set plus every difference element not already in it.
func Union(local []uint64, res *Result) []uint64 {
	in := make(map[uint64]struct{}, len(local))
	out := append([]uint64(nil), local...)
	for _, x := range local {
		in[x] = struct{}{}
	}
	for _, x := range res.Difference {
		if _, ok := in[x]; !ok {
			out = append(out, x)
		}
	}
	return out
}

// Plan is the concrete protocol parameterization both endpoints must agree
// on (bitmap size, BCH capacity, group count, seed). Derive it with
// PlanFor, then construct the two endpoints from it.
type Plan = core.Plan

// PlanFor derives a Plan for a conservative difference estimate d. Both
// parties must call it with identical arguments.
func PlanFor(d int, o *Options) (Plan, error) {
	opt, err := o.withDefaultsValidated()
	if err != nil {
		return Plan{}, err
	}
	return core.NewPlan(d, opt.coreConfig())
}

// Session is one side's protocol endpoint. The initiator (Alice, the side
// that learns the difference) repeatedly calls BuildRound and feeds the
// peer's reply to AbsorbReply; the responder (Bob) answers each message
// with HandleRound. See examples/kvsync for a complete exchange over a
// network-style transport.
//
// Session predates the Set API and remains for callers that transport the
// round messages themselves with an out-of-band Plan agreement; new code
// syncing over a stream should prefer Set.Sync/Set.Respond, which also
// run the estimation phase and support cancellation and streaming deltas.
type Session struct {
	alice *core.Alice
	bob   *core.Bob
}

// NewInitiator returns the endpoint that learns the difference.
func NewInitiator(set []uint64, plan Plan) (*Session, error) {
	a, err := core.NewAlice(set, plan)
	if err != nil {
		return nil, err
	}
	return &Session{alice: a}, nil
}

// NewResponder returns the endpoint that answers round messages.
func NewResponder(set []uint64, plan Plan) (*Session, error) {
	b, err := core.NewBob(set, plan)
	if err != nil {
		return nil, err
	}
	return &Session{bob: b}, nil
}

// BuildRound returns the next round message to send to the responder, or
// nil when reconciliation is complete. Initiator only.
func (s *Session) BuildRound() ([]byte, error) {
	if s.alice == nil {
		return nil, fmt.Errorf("pbs: BuildRound on a responder session")
	}
	return s.alice.BuildRound()
}

// AbsorbReply processes the responder's reply. Initiator only.
func (s *Session) AbsorbReply(reply []byte) error {
	if s.alice == nil {
		return fmt.Errorf("pbs: AbsorbReply on a responder session")
	}
	return s.alice.AbsorbReply(reply)
}

// HandleRound answers one round message. Responder only.
func (s *Session) HandleRound(msg []byte) ([]byte, error) {
	if s.bob == nil {
		return nil, fmt.Errorf("pbs: HandleRound on an initiator session")
	}
	return s.bob.HandleRound(msg)
}

// Done reports whether the initiator has verified every group pair.
// Responder sessions are never "done" on their own; they answer for as
// long as the initiator keeps asking.
func (s *Session) Done() bool { return s.alice != nil && s.alice.Done() }

// Difference returns the initiator's learned difference so far.
func (s *Session) Difference() []uint64 {
	if s.alice == nil {
		return nil
	}
	return s.alice.Difference()
}

// Rounds returns the number of rounds the initiator has started.
func (s *Session) Rounds() int {
	if s.alice == nil {
		return 0
	}
	return s.alice.Rounds()
}

// SyncInitiator runs the full protocol over conn and learns the set
// difference. It blocks until the exchange completes or fails. The
// responder side must run SyncResponder (or a server-driven
// ResponderSession) with identical Options.
//
// SyncInitiator is the pre-Set spelling of Set.Sync with a background
// context; prefer the Set form, which adds cancellation, deadlines,
// streaming deltas, and state reuse across repeated syncs. The wire bytes
// are identical either way.
func SyncInitiator(set []uint64, conn io.ReadWriter, o *Options) (*Result, error) {
	s, opening, err := NewInitiatorSession(set, o)
	if err != nil {
		return nil, err
	}
	if err := pumpSession(context.Background(), conn, s, opening, 0, false); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// SyncResponder serves one full protocol session over conn. It returns nil
// when the initiator signals completion.
//
// SyncResponder is the pre-Set spelling of Set.Respond with a background
// context; prefer the Set form. The wire bytes are identical either way.
func SyncResponder(set []uint64, conn io.ReadWriter, o *Options) error {
	s, err := NewResponderSession(set, o)
	if err != nil {
		return err
	}
	return pumpSession(context.Background(), conn, s, nil, 0, true)
}

// NewInitiatorSession starts an initiator session for set and returns the
// opening frames (the ToW estimate) to send to the responder. For repeated
// syncs of the same (possibly mutating) set, build a Set once instead — it
// keeps the validated snapshot and the ToW sketch warm across sessions.
func NewInitiatorSession(set []uint64, o *Options) (*InitiatorSession, []Frame, error) {
	ss, err := NewSharedSet(set, o)
	if err != nil {
		return nil, nil, err
	}
	return ss.newInitiator(ss.opt, initiatorCall{})
}

// NewResponderSession starts a standalone responder session for set. For
// many concurrent sessions over one set, build a SharedSet once and use
// its NewSession instead.
func NewResponderSession(set []uint64, o *Options) (*ResponderSession, error) {
	ss, err := NewSharedSet(set, o)
	if err != nil {
		return nil, err
	}
	return ss.NewSession(), nil
}
