package markov

import (
	"fmt"
	"math"
	"sync"
)

// DefaultMGrid is the bitmap-size grid of §5.1: n = 2^m − 1 for
// m ∈ {6..11}, i.e. n ∈ {63, 127, 255, 511, 1023, 2047}.
var DefaultMGrid = []uint{6, 7, 8, 9, 10, 11}

// Params is an optimizer result: use an n = 2^M − 1 bit parity bitmap with
// BCH error-correction capacity T per group pair.
type Params struct {
	M uint // bitmap length is n = 2^M − 1
	T int  // BCH error-correction capacity

	// BitsPerGroup is the optimizer's objective value (t + δ)·m — the
	// non-constant part of Formula (1).
	BitsPerGroup int
	// Bound is the success-probability lower bound 1 − 2(1 − α^g) achieved.
	Bound float64
}

// N returns the bitmap length 2^M − 1.
func (p Params) N() uint64 { return (uint64(1) << p.M) - 1 }

// Optimize solves the §5.1 problem: among (n, t) combinations that
// guarantee Pr[R ≤ r] ≥ p0 for reconciling d distinct elements split into
// g = max(1, round(d/δ)) groups, return the one minimizing
// t·log n + δ·log n.
//
// The t range is the paper's 1.5δ..3.5δ. If no grid point is feasible the
// search widens (larger t, then larger m) rather than failing, so callers
// always get runnable parameters; the returned Bound tells them what was
// actually achieved.
//
// Optimize is a pure function that both endpoints of every sync evaluate,
// mostly on a handful of recurring arguments, so results are memoized in a
// small bounded cache.
func Optimize(d, delta, r int, p0 float64) (Params, error) {
	if d < 1 || delta < 1 || r < 1 {
		return Params{}, fmt.Errorf("markov: invalid optimizer inputs d=%d δ=%d r=%d", d, delta, r)
	}
	if p0 <= 0 || p0 >= 1 {
		return Params{}, fmt.Errorf("markov: target probability p0=%v out of (0,1)", p0)
	}
	key := optimizeKey{d, delta, r, p0}
	optimizeMemo.Lock()
	p, ok := optimizeMemo.m[key]
	optimizeMemo.Unlock()
	if ok {
		return p, nil
	}
	p = optimize(d, delta, r, p0)
	optimizeMemo.Lock()
	if len(optimizeMemo.m) >= optimizeMemoSize {
		// d is peer-influenced: at the bound start over rather than grow.
		clear(optimizeMemo.m)
	}
	optimizeMemo.m[key] = p
	optimizeMemo.Unlock()
	return p, nil
}

type optimizeKey struct {
	d, delta, r int
	p0          float64
}

const optimizeMemoSize = 1024

var optimizeMemo = struct {
	sync.Mutex
	m map[optimizeKey]Params
}{m: make(map[optimizeKey]Params)}

// optimize is the search behind Optimize, on validated arguments.
func optimize(d, delta, r int, p0 float64) Params {
	g := NumGroups(d, delta)
	tLo := int(math.Ceil(1.5 * float64(delta)))
	tHi := int(math.Ceil(3.5 * float64(delta)))
	if best, ok := searchGrid(d, g, delta, r, p0, DefaultMGrid, tLo, tHi); ok {
		return best
	}
	// Widen: bigger bitmaps first, then more correction capacity. This
	// matters only for aggressive targets (e.g. r = 1) outside the paper's
	// sweet spot.
	wideM := []uint{6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	for scale := 1; scale <= 4; scale *= 2 {
		if best, ok := searchGrid(d, g, delta, r, p0, wideM, tLo, tHi*scale); ok {
			return best
		}
	}
	// Nothing met p0: return the best-bound configuration so the protocol
	// still runs; callers can inspect Bound.
	best, _ := searchBestBound(d, g, delta, r, wideM, tHi*4)
	return best
}

// ReplanMGrid is the bitmap-size grid Replan searches. It reaches below
// DefaultMGrid because late-round scopes hold a handful of stragglers —
// a 15- or 31-bin bitmap is often plenty — and slightly above it for
// grossly mis-estimated scopes.
var ReplanMGrid = []uint{4, 5, 6, 7, 8, 9, 10, 11, 12}

// maxReplanLoad caps the per-scope load Replan models exactly. A scope
// holding more distinct elements than this should be (and is) rescued by
// the 3-way split, not by a bigger BCH code; the cap also bounds the
// O(t³) chain DP.
const maxReplanLoad = 256

// replanHeadroom is the extra BCH capacity Replan grants beyond the load
// estimate, so an off-by-a-couple estimate still decodes.
const replanHeadroom = 2

// Replan picks fresh per-round (m, t) parameters for the *next* round of
// an in-flight reconciliation, given an upper estimate of the heaviest
// surviving scope's unreconciled-element count ("load") and the number of
// further rounds the caller wants the survivors gone within. It is the
// online counterpart of Optimize: where Optimize plans r rounds ahead from
// a binomial split of d̂, Replan is called between rounds, when the decode
// outcomes have revealed the actual survivors.
//
// With capacity t ≥ load the chain models the scope exactly — every
// reachable state fits below the cap, so Pr[load →rounds 0] = (M^rounds)
// (load, 0) depends only on the bitmap size n. The objective (t + load)·m
// (Formula (1)'s non-constant part, with the realized load in place of δ)
// is therefore minimized by the smallest feasible bitmap with
// t = load + headroom. If even the largest grid bitmap cannot reach p0,
// Replan returns the best it found (largest n) with its achieved Bound;
// overload beyond that is the 3-way split path's job.
func Replan(load, rounds int, p0 float64) (Params, error) {
	if load < 1 {
		return Params{}, fmt.Errorf("markov: replan load=%d must be >= 1", load)
	}
	if rounds < 1 {
		return Params{}, fmt.Errorf("markov: replan rounds=%d must be >= 1", rounds)
	}
	if p0 <= 0 || p0 >= 1 {
		return Params{}, fmt.Errorf("markov: target probability p0=%v out of (0,1)", p0)
	}
	if load > maxReplanLoad {
		load = maxReplanLoad
	}
	t := load + replanHeadroom
	var best Params
	for _, m := range ReplanMGrid {
		n := (uint64(1) << m) - 1
		if uint64(t) > n/2 {
			continue
		}
		c, err := NewChain(n, t)
		if err != nil {
			continue
		}
		p := c.SuccessProb(load, rounds)
		best = Params{M: m, T: t, BitsPerGroup: (t + load) * int(m), Bound: p}
		if p >= p0 {
			return best, nil
		}
	}
	if best.M == 0 {
		return Params{}, fmt.Errorf("markov: replan load=%d exceeds every grid bitmap", load)
	}
	return best, nil
}

// NumGroups returns g = max(1, round(d/δ)) (§3).
func NumGroups(d, delta int) int {
	g := int(math.Round(float64(d) / float64(delta)))
	if g < 1 {
		g = 1
	}
	return g
}

func searchGrid(d, g, delta, r int, p0 float64, mGrid []uint, tLo, tHi int) (Params, bool) {
	var best Params
	found := false
	for _, m := range mGrid {
		n := (uint64(1) << m) - 1
		// The bound is (essentially) monotone in t, so probe the largest t
		// first: if even that is infeasible, skip this m entirely. The
		// first feasible t scanning upward then minimizes the objective
		// (t + δ)·m for this m.
		probe := tHi
		if uint64(probe) > n/2 {
			probe = int(n / 2)
		}
		if probe < tLo {
			continue
		}
		if c, err := NewChain(n, probe); err != nil || c.LowerBound(d, g, r) < p0 {
			continue
		}
		for t := tLo; t <= probe; t++ {
			c, err := NewChain(n, t)
			if err != nil {
				continue
			}
			bound := c.LowerBound(d, g, r)
			if bound < p0 {
				continue
			}
			obj := (t + delta) * int(m)
			if !found || obj < best.BitsPerGroup {
				best = Params{M: m, T: t, BitsPerGroup: obj, Bound: bound}
			}
			found = true
			break
		}
	}
	return best, found
}

func searchBestBound(d, g, delta, r int, mGrid []uint, tHi int) (Params, bool) {
	var best Params
	found := false
	for _, m := range mGrid {
		n := (uint64(1) << m) - 1
		for t := delta; t <= tHi; t++ {
			if uint64(t) > n/2 {
				continue
			}
			c, err := NewChain(n, t)
			if err != nil {
				continue
			}
			bound := c.LowerBound(d, g, r)
			if !found || bound > best.Bound {
				best = Params{M: m, T: t, BitsPerGroup: (t + delta) * int(m), Bound: bound}
				found = true
			}
		}
	}
	return best, found
}

// BoundTable computes the Table 1 (Appendix H) grid: the success-probability
// lower bound for every (n = 2^m − 1, t) combination. Rows are indexed by t
// and columns by m.
func BoundTable(d, delta, r int, ts []int, ms []uint) [][]float64 {
	g := NumGroups(d, delta)
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = make([]float64, len(ms))
		for j, m := range ms {
			n := (uint64(1) << m) - 1
			c, err := NewChain(n, t)
			if err != nil {
				out[i][j] = math.NaN()
				continue
			}
			out[i][j] = c.LowerBound(d, g, r)
		}
	}
	return out
}
