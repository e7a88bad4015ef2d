// Package core implements the Parity Bitmap Sketch (PBS) set-reconciliation
// protocol — the primary contribution of the paper (§2 and §3).
//
// PBS-for-small-d (§2): both parties hash-partition their sets into n bins,
// encode the per-bin cardinality parities as an n-bit parity bitmap, and
// Alice sends a BCH codeword that lets Bob locate the bit positions where
// the two bitmaps differ. Each differing bin pair that contains exactly one
// distinct element is reconciled from the pair's XOR sums (Procedure 1).
// A plain-sum checksum verifies the result; exceptions trigger further
// rounds with fresh, independent hash functions.
//
// PBS-for-large-d (§3): the sets are first hash-partitioned into
// g = d/δ groups and PBS-for-small-d runs on every group pair
// independently, all with the same optimized (n, t). Group pairs whose BCH
// decoding fails are split three ways for the next round (§3.2).
//
// The package exposes the two protocol endpoints (Alice and Bob) exchanging
// opaque bit-packed messages, plus Drive, which runs the exchange between
// two endpoints in process and reports communication statistics.
package core

import (
	"fmt"

	"pbs/internal/markov"
)

// Defaults used throughout the paper.
const (
	DefaultDelta         = 5    // average distinct elements per group (§3)
	DefaultTargetRounds  = 3    // the paper's sweet spot r (§5.2)
	DefaultTargetSuccess = 0.99 // p0 in most experiments (§8.1)
	DefaultSigBits       = 32   // signature length log|U| (§8)
)

// maxAdaptiveM and maxAdaptiveT bound the per-round (m, t) an adaptive
// round header may demand, independently of Plan.validate's static range:
// a hostile peer must not be able to force huge (n+1)-sized bin buffers or
// superlinear BCH decoding by claiming absurd parameters mid-session.
// markov.Replan never exceeds m=12, t=258; these caps leave headroom.
const (
	maxAdaptiveM = 16
	maxAdaptiveT = 1 << 11
)

// DefaultMaxRounds is the round cap applied when Config.MaxRounds asks for
// an "unlimited" session (<= 0). PBS converges in a handful of rounds with
// overwhelming probability — the paper's round budget r is 3 — so reaching
// 64 indicates a bug or an adversarial peer rather than bad luck.
// NewPlan resolves the cap here once, so the in-process driver, the wire
// protocol, and the server all share the same bound instead of each
// hard-coding its own fallback.
const DefaultMaxRounds = 64

// Config describes the tunables a caller may set; zero values select the
// paper defaults.
type Config struct {
	// Delta is the target average number of distinct elements per group.
	Delta int
	// TargetRounds is r: the round budget the parameter optimizer plans
	// for. The protocol itself may be allowed to run longer (MaxRounds).
	TargetRounds int
	// TargetSuccess is p0, the success-probability target for completing
	// within TargetRounds.
	TargetSuccess float64
	// SigBits is the signature length log|U| (elements must fit).
	SigBits uint
	// Seed derives every hash function used in the protocol. Both parties
	// must use the same seed.
	Seed uint64
	// MaxRounds caps protocol rounds; <= 0 selects DefaultMaxRounds,
	// which in practice means "run until reconciled" — PBS converges in
	// a few rounds with overwhelming probability.
	MaxRounds int
	// Parallelism is the worker count for per-group encoding and decoding.
	// 0 selects GOMAXPROCS; 1 forces the sequential reference path. It is a
	// local execution knob: both endpoints may use different values and the
	// wire bytes are unaffected.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Delta == 0 {
		c.Delta = DefaultDelta
	}
	if c.TargetRounds == 0 {
		c.TargetRounds = DefaultTargetRounds
	}
	if c.TargetSuccess == 0 {
		c.TargetSuccess = DefaultTargetSuccess
	}
	if c.SigBits == 0 {
		c.SigBits = DefaultSigBits
	}
	return c
}

// Plan is the concrete parameterization both endpoints must agree on before
// the first round. It is derived from the (estimated) difference
// cardinality d via the Markov-chain optimizer of §5.1.
type Plan struct {
	M         uint   // parity bitmaps are n = 2^M − 1 bits long
	T         int    // BCH error-correction capacity per group pair
	Groups    int    // g, number of group pairs
	Delta     int    // δ used to derive Groups
	MaxRounds int    // round cap; NewPlan resolves <= 0 to DefaultMaxRounds
	SigBits   uint   // log|U|
	Seed      uint64 // master hash seed

	// Parallelism is the per-group worker count (0 = GOMAXPROCS, 1 =
	// sequential). Unlike every other field it is not part of the wire
	// contract: endpoints may disagree on it freely.
	Parallelism int
}

// N returns the parity bitmap length 2^M − 1.
func (p Plan) N() uint64 { return (uint64(1) << p.M) - 1 }

func (p Plan) validate() error {
	if p.M < 2 || p.M > 30 {
		return fmt.Errorf("core: bitmap degree m=%d out of range", p.M)
	}
	if p.T < 1 || uint64(p.T) > p.N()/2 {
		return fmt.Errorf("core: capacity t=%d invalid for n=%d", p.T, p.N())
	}
	if p.Groups < 1 {
		return fmt.Errorf("core: groups=%d must be >= 1", p.Groups)
	}
	if p.SigBits < 8 || p.SigBits > 64 {
		return fmt.Errorf("core: sigBits=%d out of range [8,64]", p.SigBits)
	}
	return nil
}

// NewPlan derives a Plan for reconciling an (estimated, already
// conservatively scaled) difference cardinality d under cfg, running the
// §5.1 optimizer for (n, t).
func NewPlan(d int, cfg Config) (Plan, error) {
	cfg = cfg.withDefaults()
	if d < 1 {
		d = 1
	}
	params, err := markov.Optimize(d, cfg.Delta, cfg.TargetRounds, cfg.TargetSuccess)
	if err != nil {
		return Plan{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	plan := Plan{
		M:           params.M,
		T:           params.T,
		Groups:      markov.NumGroups(d, cfg.Delta),
		Delta:       cfg.Delta,
		MaxRounds:   maxRounds,
		SigBits:     cfg.SigBits,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	}
	// Reject invalid configurations (e.g. out-of-range SigBits) at plan
	// derivation time rather than at endpoint construction.
	if err := plan.validate(); err != nil {
		return Plan{}, err
	}
	return plan, nil
}
