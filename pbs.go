// Package pbs implements Parity Bitmap Sketch (PBS) set reconciliation —
// a space- and computationally-efficient scheme for two network-connected
// hosts to learn the difference A△B between their sets A and B
// (Gong et al., "Space- and Computationally-Efficient Set Reconciliation
// via Parity Bitmap Sketch (PBS)", VLDB 2020).
//
// PBS combines the low O(d) decoding cost of invertible-Bloom-filter
// schemes with communication overhead roughly twice the information-
// theoretic minimum d·log|U|, and is "piecewise reconciliable": each group
// pair decodes independently, so the vast majority of differences are
// learned in the first round even when a few groups need more rounds.
//
// # Quick start
//
//	a, _ := pbs.NewSet(mine)
//	b, _ := pbs.NewSet(theirs)
//	res, err := a.Reconcile(ctx, b)
//	if err != nil { ... }
//	fmt.Println(res.Difference) // = mine △ theirs
//
// Set.Reconcile runs the full protocol in process — the session engines a
// wire Sync runs, stepped in memory: a Tug-of-War estimate of d = |A△B|
// sizes the first round, the paper's Markov-chain framework picks its
// parameters, and the multi-round PBS protocol completes it.
//
// # The Set API
//
// The one public entry point is the Set handle: a long-lived, mutable,
// concurrency-safe set that keeps its estimator sketch, validated
// snapshot, and group partitions warm across reconciliations, and exposes
// every protocol role with context cancellation and functional options:
//
//	set, _ := pbs.NewSet(mine, pbs.WithSeed(42))
//	res, err := set.Sync(ctx, conn,
//		pbs.WithOnDelta(func(elems []uint64, round int) {
//			apply(elems) // differences stream in as group pairs verify
//		}))
//
// Set.Sync initiates over any connection, Set.Respond answers a single
// peer, and Set.Reconcile runs both endpoints in process. A Server answers
// many sessions concurrently on a listener, against sets published with
// Server.Host and written with Server.HostedUpdate; a MuxConn carries many
// Set.Sync sessions over one connection. See examples/serversync and
// cmd/pbs-serve, and the README for what replaced the entry points that
// predate Set.
package pbs

import (
	"fmt"
	"math"

	"pbs/internal/core"
	"pbs/internal/estimator"
	"pbs/internal/frame"
)

// Options tunes a reconciliation. The zero value (or nil) selects the
// paper's defaults: δ=5, r=3, p0=0.99, 32-bit signatures, ℓ=128 ToW
// sketches, γ=1.38.
type Options struct {
	// Delta is the target average number of distinct elements per group.
	Delta int
	// TargetRounds is the round budget r the parameter optimizer plans for.
	TargetRounds int
	// TargetSuccess is the probability p0 of completing within TargetRounds.
	TargetSuccess float64
	// SigBits is the element signature length log|U| in bits (8..64).
	// Elements must be nonzero and fit in SigBits bits.
	SigBits uint
	// Seed makes the run deterministic; both parties must agree on it.
	Seed uint64
	// MaxRounds caps protocol rounds. 0 selects the core.DefaultMaxRounds
	// safety cap of 64, which in practice runs to completion — PBS
	// converges in a few rounds, and the checksum layer guarantees
	// correctness whenever it terminates.
	MaxRounds int
	// EstimatorSketches is the ToW sketch count ℓ (default 128).
	EstimatorSketches int
	// Gamma is the conservative scale applied to the estimate (default 1.38).
	Gamma float64
	// KnownD, when > 0, asserts |A△B| <= KnownD and sizes the speculative
	// first round from it instead of from the prior or the estimate.
	KnownD int
	// MaxD caps the difference estimate d̂ a wire session will accept
	// before deriving a Plan from it. The estimate is peer-influenced on
	// both sides — the responder echoes the value it computed from the
	// initiator's sketches, and hostile sketches can drive that value
	// arbitrarily high — so without a cap a malicious peer forces an
	// arbitrarily large Plan allocation. Sessions reject an over-limit d̂
	// with a protocol error before any allocation. 0 selects DefaultMaxD
	// (Server-driven responder sessions additionally tighten the default
	// to 64·|S|+1024 when that is smaller, since their per-session
	// allocation scales with d̂); negative lifts the cap to an effectively
	// unlimited 2^62 (never do this on a server exposed to untrusted
	// peers).
	MaxD int
	// StrongVerify adds the §2.2.3 whole-set multiset-hash check to wire
	// sessions, pushing the false-verification probability to practically
	// zero for the cost of the 32-byte digest. The digest rides the hello
	// reply, so the session keeps its single round trip.
	StrongVerify bool
	// Parallelism is the worker count for per-group encoding and decoding.
	// PBS group pairs are piecewise reconciliable — each decodes
	// independently — so the hot path fans out across this many goroutines.
	// 0 (the default) selects GOMAXPROCS; 1 forces the sequential reference
	// path. It is a purely local execution knob: the two endpoints may use
	// different values, and the wire bytes are identical for every setting.
	Parallelism int
}

// DefaultMaxD is the cap applied to the exchanged difference estimate d̂
// when Options.MaxD is zero. It is derived from frame.MaxFrame: at the default
// δ = 5 a plan for d differences emits first-round frames of a couple of
// bytes per difference and allocates endpoint state proportional to d, so
// an estimate within an order of magnitude of the 64 MiB frame limit could
// never complete a round anyway — a d̂ beyond this bound marks a broken or
// hostile peer, not a big reconciliation.
const DefaultMaxD = frame.MaxFrame / 8

func (o *Options) withDefaults() Options {
	var opt Options
	if o != nil {
		opt = *o
	}
	if opt.EstimatorSketches == 0 {
		opt.EstimatorSketches = estimator.DefaultSketches
	}
	if opt.Gamma == 0 {
		opt.Gamma = estimator.DefaultGamma
	}
	if opt.SigBits == 0 {
		opt.SigBits = core.DefaultSigBits
	}
	return opt
}

// validate rejects nonsensical option values at the API boundary with a
// clear pbs-prefixed error, instead of letting them surface as a deep
// internal/core or estimator failure mid-protocol. It runs after
// withDefaults, so zero values have already been resolved.
func (o Options) validate() error {
	switch {
	case o.Delta < 0:
		return fmt.Errorf("pbs: Delta must not be negative (got %d)", o.Delta)
	case o.TargetRounds < 0:
		return fmt.Errorf("pbs: TargetRounds must not be negative (got %d)", o.TargetRounds)
	case math.IsNaN(o.TargetSuccess) || o.TargetSuccess < 0 || o.TargetSuccess >= 1:
		return fmt.Errorf("pbs: TargetSuccess must be a probability in [0, 1) (got %v)", o.TargetSuccess)
	case o.SigBits < 8 || o.SigBits > 64:
		return fmt.Errorf("pbs: SigBits must be in [8, 64] (got %d)", o.SigBits)
	case o.EstimatorSketches < 0:
		return fmt.Errorf("pbs: EstimatorSketches must not be negative (got %d)", o.EstimatorSketches)
	case math.IsNaN(o.Gamma) || o.Gamma < 0:
		return fmt.Errorf("pbs: Gamma must not be negative (got %v)", o.Gamma)
	case o.KnownD < 0:
		return fmt.Errorf("pbs: KnownD must not be negative (got %d)", o.KnownD)
	case o.Parallelism < 0:
		return fmt.Errorf("pbs: Parallelism must not be negative (got %d)", o.Parallelism)
	}
	return nil
}

// withDefaultsValidated is the standard entry-point resolution: defaults
// applied, then validated.
func (o *Options) withDefaultsValidated() (Options, error) {
	opt := o.withDefaults()
	if err := opt.validate(); err != nil {
		return Options{}, err
	}
	return opt, nil
}

// Plan is the concrete protocol parameterization both endpoints must agree
// on (bitmap size, BCH capacity, group count, seed). Wire sessions derive
// it from the exchanged estimate; PlanFor exposes the same derivation.
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

func (o Options) coreConfig() core.Config {
	return core.Config{
		Delta:         o.Delta,
		TargetRounds:  o.TargetRounds,
		TargetSuccess: o.TargetSuccess,
		SigBits:       o.SigBits,
		Seed:          o.Seed,
		MaxRounds:     o.MaxRounds,
		Parallelism:   o.Parallelism,
	}
}

// Result reports the outcome of a reconciliation. Sync and Reconcile run
// the same session, and every field reads the same for both except
// PayloadBytes.
type Result struct {
	// Difference is the learned A△B.
	Difference []uint64
	// Complete reports whether every group pair passed checksum
	// verification within the round budget. When true, Difference is
	// exactly A△B (up to the ~2^−SigBits false-verification probability
	// analysed in §2.2.3 of the paper).
	Complete bool
	// Rounds is the number of message exchanges used.
	Rounds int
	// EstimatedD is the conservative difference-cardinality estimate γ·d̂,
	// from the responder's ToW estimate. When the responder answered the
	// speculative first round, the plan came from γ·d_spec, not from this
	// value.
	EstimatedD int
	// PayloadBytes is the protocol communication overhead — codewords,
	// positions, XOR sums, checksums — the quantity the paper reports.
	// Reconcile holds both endpoints and counts both directions; a Sync
	// counts only the initiator's side, since it cannot see its peer's.
	PayloadBytes int
	// WireBytes is the full serialized message volume including framing,
	// the estimator's bytes included.
	WireBytes int
	// EstimatorBytes is the part of WireBytes the ToW estimate exchange
	// costs: the hello's and the reply's envelopes. The paper accounts it
	// separately.
	EstimatorBytes int
	// Replans counts rounds whose parameters the adaptive controller
	// re-derived away from the static plan (see WithAdaptive). Always 0
	// when adaptive mode was off, not granted by the peer, or the session
	// finished in one round.
	Replans int
}
