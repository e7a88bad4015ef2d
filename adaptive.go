package pbs

import (
	"math"
	"sync"
)

// This file holds the online adaptive controller: a learned per-handle
// prior over realized difference cardinalities and the speculation sizing
// that replaces hand-set KnownD/DefaultSpeculativeD for warm handles. The
// wire side
// of adaptive mode — negotiating the grant in the fast hello and carrying
// re-planned (m, t) parameters on rounds ≥ 2 — lives in internal/frame and
// session.go; the per-round re-planning policy itself is internal/core's
// Alice.EnableAdaptive/Bob.EnableAdaptive backed by markov.Replan.
//
// Everything here is initiator-local: it changes which parameters this
// side asks for, never the protocol's correctness. A peer that predates
// adaptive mode simply never grants it, and the session degrades to the
// static paper-fixed plan byte-for-byte.

// WithAdaptive toggles the online adaptive controller for a Set (default
// on). With it on, two things happen:
//
//   - Speculation sizing: fast syncs size their speculative first round
//     from a learned EWMA prior over this handle's realized differences
//     (the smoothed mean plus headroom, floored at DefaultSpeculativeD,
//     escalated to the latest outcome on a regime shift) instead of the
//     fixed last-difference heuristic. An explicit WithKnownD still wins,
//     and a cold handle still opens at DefaultSpeculativeD.
//   - Round re-planning: the fast hello offers adaptive mode to the peer;
//     when granted, both endpoints re-derive (n, t) per round from the
//     Markov occupancy model — survivor-only rounds shrink their parity
//     bitmaps well below the static plan's, split rounds replay it.
//
// WithAdaptive(false) pins the paper-fixed behavior: the hello carries no
// adaptive offer, every round runs the static plan, and speculation sizing
// follows the legacy last-difference heuristic — the wire stream is
// byte-identical to a build without adaptive mode.
func WithAdaptive(on bool) Option { return func(c *setConfig) { c.adaptiveOff = !on } }

// specPredictHeadroom is the fixed slack added on top of the prior's
// mean + 2σ speculation size: it keeps a freshly converged prior (σ ≈ 0)
// from speculating exactly at the mean, where half of all outcomes would
// overflow the plan.
const specPredictHeadroom = 8

// ewmaAlphaFloor is the steady-state EWMA weight. Warm-up uses 1/count so
// the first observations are absorbed at full weight (the first IS the
// mean), decaying to this floor — a shift in the workload's difference
// regime is fully reflected after a handful of syncs.
const ewmaAlphaFloor = 0.25

// dhatPrior is a concurrency-safe learned prior over a set handle's
// realized difference cardinalities: an EWMA of the mean and variance of
// |A△B| as observed by completed syncs. It is the adaptive replacement
// for hand-tuning WithKnownD — after a few syncs the handle knows its own
// churn regime and sizes speculation from it.
type dhatPrior struct {
	mu    sync.Mutex
	mean  float64
	vr    float64
	count uint64
}

// observe folds one realized difference cardinality into the prior.
func (p *dhatPrior) observe(d float64) {
	if math.IsNaN(d) || d < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	alpha := 1 / float64(p.count)
	if alpha < ewmaAlphaFloor {
		alpha = ewmaAlphaFloor
	}
	delta := d - p.mean
	p.mean += alpha * delta
	p.vr = (1 - alpha) * (p.vr + alpha*delta*delta)
}

// predict returns the speculative difference bound the prior recommends —
// the smoothed mean plus fixed headroom, clamped to at least 1 — and
// ok=false for a cold prior with nothing observed yet. The bound is
// deliberately NOT inflated by the prior's spread: syncPlan γ-scales every
// speculative bound by 1.38 (the same slack the estimator path carries),
// which already covers sync-to-sync churn variation, and PBS degrades
// gracefully when a draw lands past it — the speculative round decodes
// piecewise and a re-planned survivor round mops up. Adding σ terms here
// multiplies through γ into every warm plan and costs more bytes than the
// occasional extra round saves.
func (p *dhatPrior) predict() (uint64, bool) {
	p.mu.Lock()
	mean, _, count := p.mean, p.vr, p.count
	p.mu.Unlock()
	if count == 0 {
		return 0, false
	}
	spec := mean + specPredictHeadroom
	if spec < 1 {
		spec = 1
	}
	return uint64(math.Round(spec)), true
}

// shifted reports whether a realized difference d lies outside the prior's
// learned spread (mean + 2σ + headroom) — the signal that the workload
// changed regime rather than drew an ordinary fluctuation.
func (p *dhatPrior) shifted(d float64) bool {
	p.mu.Lock()
	mean, vr, count := p.mean, p.vr, p.count
	p.mu.Unlock()
	if count == 0 {
		return false
	}
	return d > mean+2*math.Sqrt(vr)+specPredictHeadroom
}

// adaptiveSpeculativeD sizes the fast path's speculative first round under
// the resolved call configuration: the learned prior when adaptive mode is
// on and warm, the legacy last-difference heuristic otherwise. WithKnownD
// always wins (speculativeD handles it).
func (s *Set) adaptiveSpeculativeD(cfg *setConfig) uint64 {
	if cfg.adaptiveOff || cfg.opt.KnownD > 0 {
		return s.speculativeD(cfg.opt)
	}
	spec, ok := s.prior.predict()
	if !ok {
		return s.speculativeD(cfg.opt)
	}
	// The learned bound never shrinks the speculative plan below the stock
	// default: small plans concentrate the difference into few groups,
	// raising the bin-collision rate — the dominant cause of a second
	// round in this regime — so shaving their already-small parity trades
	// a whole round trip for a handful of bytes. Above the default, parity
	// dominates the cost and the prior's mean-sized bound is the win.
	if spec < DefaultSpeculativeD {
		spec = DefaultSpeculativeD
	}
	// Regime-shift escape hatch: when the most recent outcome (specPrior
	// holds it plus one; after a failed attempt, the peer's observed d̂)
	// lands outside the prior's own spread, the workload moved and the
	// smoothed mean lags behind — size to the outcome until the EWMA
	// catches up. Ordinary fluctuations inside the spread stay with the
	// mean; chasing every above-mean draw would oversize most warm plans.
	// Neither path hops away from a bound whose sync took a second round:
	// a completed multi-round sync is the plan behaving normally (a
	// collision draw), and a replayed plan is the paper-fixed behaviour
	// WithAdaptive(false) promises.
	if p := s.specPrior.Load(); p > 0 && s.prior.shifted(float64(p-1)) {
		if last := p - 1 + specPredictHeadroom; last > spec {
			spec = last
		}
	}
	return spec
}
