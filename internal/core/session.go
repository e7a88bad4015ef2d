package core

import "fmt"

// Stats reports the cost of a reconciliation session.
type Stats struct {
	// Rounds is the number of message exchanges executed.
	Rounds int
	// AliceWireBits / BobWireBits count full serialized messages
	// (payload + framing) in each direction.
	AliceWireBits int
	BobWireBits   int
	// AlicePayloadBits / BobPayloadBits count only the protocol payload —
	// the quantities of Formula (1): BCH codewords one way; positions,
	// XOR sums, and checksums the other way.
	AlicePayloadBits int
	BobPayloadBits   int

	// Item counts, for re-pricing the payload at a different signature
	// width (App. J.3 simulates 256-bit transaction IDs this way).
	SketchesSent  int // per-scope BCH codewords (t·m bits each)
	PositionsSent int // (position, XOR sum) pairs
	ChecksumsSent int // per-scope checksums

	// Plan echoes the parameters used, for re-pricing.
	Plan Plan
}

// PayloadBitsAt re-prices the session's payload at a different signature
// width: codewords and positions keep their log n width, while XOR sums
// and checksums scale to sigBits. This is the substitution Appendix J.3
// makes to evaluate 256-bit transaction IDs over a 32-bit testbed.
func (s Stats) PayloadBitsAt(sigBits int) int {
	m := int(s.Plan.M)
	return s.SketchesSent*s.Plan.T*m + s.PositionsSent*(m+sigBits) + s.ChecksumsSent*sigBits
}

// TotalWireBytes returns the total bytes of serialized messages exchanged.
func (s Stats) TotalWireBytes() int {
	return (s.AliceWireBits + s.BobWireBits + 7) / 8
}

// TotalPayloadBytes returns the paper-comparable communication overhead.
func (s Stats) TotalPayloadBytes() int {
	return (s.AlicePayloadBits + s.BobPayloadBits + 7) / 8
}

// Result is the outcome of a driven reconciliation session.
type Result struct {
	// Difference is Alice's learned A△B.
	Difference []uint64
	// Complete reports whether every group pair passed checksum
	// verification within the round budget.
	Complete bool
	Stats    Stats
}

// Drive runs rounds between existing endpoints until Alice is done or the
// round budget is exhausted. maxRounds <= 0 means unlimited, which (like
// every plan NewPlan derives) is capped at DefaultMaxRounds; hand-built
// budgets beyond that cap are clamped to it as well.
func Drive(alice *Alice, bob *Bob, maxRounds int) (*Result, error) {
	cap := maxRounds
	if cap <= 0 || cap > DefaultMaxRounds {
		cap = DefaultMaxRounds
	}
	var st Stats
	for round := 0; round < cap && !alice.Done(); round++ {
		msg, err := alice.BuildRound()
		if err != nil {
			return nil, fmt.Errorf("core: round %d build: %w", round+1, err)
		}
		if msg == nil {
			break
		}
		reply, err := bob.HandleRound(msg)
		if err != nil {
			return nil, fmt.Errorf("core: round %d handle: %w", round+1, err)
		}
		if err := alice.AbsorbReply(reply); err != nil {
			return nil, fmt.Errorf("core: round %d absorb: %w", round+1, err)
		}
		st.Rounds++
		st.AliceWireBits += len(msg) * 8
		st.BobWireBits += len(reply) * 8
	}
	st.AlicePayloadBits = alice.PayloadBits()
	st.BobPayloadBits = bob.PayloadBits()
	st.SketchesSent = alice.SketchesSent()
	st.PositionsSent = bob.PositionsSent()
	st.ChecksumsSent = bob.ChecksumsSent()
	st.Plan = alice.plan
	return &Result{
		Difference: alice.Difference(),
		Complete:   alice.Done(),
		Stats:      st,
	}, nil
}
