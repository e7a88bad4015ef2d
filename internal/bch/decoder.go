package bch

import (
	"slices"

	"pbs/internal/gf2"
)

// Decoder is a reusable decode workspace: syndrome expansion, the
// Berlekamp–Massey connection-polynomial buffers, the Chien-search state,
// and the recovered-element and verification buffers. Repeated
// DecodeInto calls through the same warmed-up Decoder perform zero heap
// allocations for table-backed fields (m ≤ 16, the PBS hot path).
//
// A Decoder is not safe for concurrent use; give each worker its own.
// One Decoder may serve sketches of different shapes — the buffers grow
// to the largest shape seen.
type Decoder struct {
	syn   []uint64 // full syndrome sequence σ_1..σ_2t (index 0 unused)
	c     []uint64 // BM connection polynomial Λ
	b     []uint64 // BM previous connection polynomial
	tmp   []uint64 // BM update scratch
	chien gf2.Chien
	roots []uint64 // locator-root exponents from the Chien scan
	elems []uint64 // recovered elements awaiting verification
	check []uint64 // recomputed odd syndromes
}

// NewDecoder returns an empty decode workspace. Buffers are sized on
// first use.
func NewDecoder() *Decoder { return &Decoder{} }

// grown returns s with length n and every element zeroed, reusing the
// backing array when large enough.
func grown(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// withCap returns s emptied, with capacity at least n.
func withCap(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, 0, n)
	}
	return s[:0]
}

// DecodeInto recovers the sketched set using ws as scratch space and
// appends the recovered elements to dst in ascending order, returning the
// extended slice. On failure it returns dst unchanged alongside
// ErrDecodeFailure. A nil ws allocates a throwaway workspace; passing a
// reused one makes steady-state decoding allocation-free (for m ≤ 16 —
// larger fields fall back to the allocating trace root-finder).
func (s *Sketch) DecodeInto(ws *Decoder, dst []uint64) ([]uint64, error) {
	if ws == nil {
		ws = NewDecoder()
	}
	if s.Empty() {
		return dst, nil
	}
	f, t := s.f, s.t
	// A lone element x leaves the syndromes x, x³, …: its table row.
	if x := s.odd[0]; x != 0 && s.pow != nil && s.equalsPacked(s.pow.row(x)) {
		return append(dst, x), nil
	}
	// Build the full syndrome sequence syn[1..2t] using σ_{2k} = σ_k².
	ws.syn = grown(ws.syn, 2*t+1)
	syn := ws.syn
	for i := 1; i <= 2*t; i++ {
		if i%2 == 1 {
			syn[i] = s.odd[(i-1)/2]
		} else {
			syn[i] = f.Sqr(syn[i/2])
		}
	}
	locator := ws.berlekampMassey(f, syn[1:])
	deg := len(locator) - 1
	if deg < 1 || deg > t {
		return dst, ErrDecodeFailure
	}
	ws.elems = withCap(ws.elems, deg)
	switch {
	case deg == 1:
		// Λ = c0 + c1·x has the single root c0/c1, whose inverse — the
		// recovered element — is c1/c0. No search needed.
		ws.elems = append(ws.elems, f.Div(locator[1], locator[0]))
	case deg == 2 && f.Tabled():
		// Quadratics solve in closed form. (Most PBS rounds beyond the first
		// leave 1–2 differing bins per group, so these two shortcuts carry
		// the late rounds.)
		e1, e2, ok := solveQuadratic(f, locator[0], locator[1], locator[2])
		if !ok {
			return dst, ErrDecodeFailure
		}
		ws.elems = append(ws.elems, e1, e2)
	case ws.chien.Init(f, locator):
		// True Chien search: the locator Λ(x) = Π (1 − X_i·x) is evaluated
		// at α^0, α^1, ... by per-term constant multiplies; a root α^i
		// reveals the element X = (α^i)^{-1} = α^(ord−i).
		ws.roots = ws.chien.Zeros(withCap(ws.roots, deg), deg)
		if len(ws.roots) != deg {
			return dst, ErrDecodeFailure
		}
		ord := f.Order()
		for _, i := range ws.roots {
			ws.elems = append(ws.elems, f.Exp(ord-i))
		}
	default:
		// No log tables (m > 16): Berlekamp trace root finding.
		roots, err := traceRootFind(f, gf2.Poly(locator))
		if err != nil {
			return dst, err
		}
		if len(roots) != deg {
			return dst, ErrDecodeFailure
		}
		for _, r := range roots {
			ws.elems = append(ws.elems, f.Inv(r))
		}
	}
	// Robust failure detection (§3.2): recompute the odd syndromes from the
	// recovered elements and require an exact match. When the true
	// difference exceeds t, Berlekamp–Massey may still emit a fully-rooted
	// locator; this recheck catches essentially all such miscorrections.
	// The elements go through the same packed fold as a parity bitmap.
	ws.check = grown(ws.check, t)
	check := s.Over(ws.check)
	check.AddSet(ws.elems)
	if !slices.Equal(check.odd, s.odd) {
		return dst, ErrDecodeFailure
	}
	slices.Sort(ws.elems)
	return append(dst, ws.elems...), nil
}

// equalsPacked reports whether the syndromes equal the leading t lanes of
// packed, a table row or an XOR of several.
func (s *Sketch) equalsPacked(packed []uint64) bool {
	for k, v := range s.odd {
		if v != lane(packed, k) {
			return false
		}
	}
	return true
}

// solveQuadratic returns the two recovered elements (inverse roots) of the
// locator c0 + c1·x + c2·x² over a table-backed field, or ok = false when
// the quadratic has no pair of distinct roots in the field (which signals a
// miscorrection). c0 and c2 are nonzero for a trimmed locator from
// Berlekamp–Massey (c0 = 1 by construction).
func solveQuadratic(f *gf2.Field, c0, c1, c2 uint64) (e1, e2 uint64, ok bool) {
	if c1 == 0 {
		return 0, 0, false // double root: locator not squarefree
	}
	// The elements are the roots of the reversed polynomial X² + bX + c with
	// b = c1/c0 and c = c2/c0. Substituting X = b·y turns it into the
	// Artin–Schreier form y² + y = c/b² = c0·c2/c1², solvable iff the trace
	// of the right side is 0, and its solutions y, y + 1 scale back by b.
	y := f.QuadRoot(f.Div(f.Mul(c0, c2), f.Sqr(c1)))
	if y == 0 {
		return 0, 0, false
	}
	b := f.Div(c1, c0)
	e1 = f.Mul(b, y)
	return e1, e1 ^ b, true
}

// berlekampMassey computes the minimal LFSR (the error locator polynomial)
// for the syndrome sequence syn[0..2t-1] — σ_1..σ_2t with σ_2k = σ_k², which
// it relies on — entirely inside the workspace buffers. The returned slice (trailing zeros trimmed) aliases workspace
// memory and is valid until the next call.
func (ws *Decoder) berlekampMassey(f *gf2.Field, syn []uint64) []uint64 {
	n2 := len(syn)
	ws.c = withCap(ws.c, n2+2)
	ws.b = withCap(ws.b, n2+2)
	ws.tmp = withCap(ws.tmp, n2+2)
	c := append(ws.c, 1) // connection polynomial Λ
	b := append(ws.b, 1)
	tmp := ws.tmp
	var l int
	shift := 1
	bInv := uint64(1) // inverse of the last nonzero discrepancy
	for n := 0; n < n2; n++ {
		// Discrepancy d = Σ_{i=0}^{l} c[i]·syn[n−i], c[0] being 1. At every
		// second step it is zero whatever the odd syndromes are, the even
		// ones being squares (Berlekamp's binary simplification).
		var d uint64
		if n&1 == 0 {
			d = f.DotRev(c[:min(l+1, len(c))], syn[:n+1])
		}
		if d == 0 {
			shift++
			continue
		}
		coef := f.Mul(d, bInv)
		grows := 2*l <= n
		if grows {
			tmp = append(tmp[:0], c...) // c as it stands becomes the next b
		}
		// c −= coef·x^shift·b.
		for len(c) < len(b)+shift {
			c = append(c, 0)
		}
		f.MulAdd(c[shift:], b, coef)
		if grows {
			b, tmp = tmp, b
			bInv = f.Inv(d)
			l = n + 1 - l
			shift = 1
		} else {
			shift++
		}
	}
	// Trim trailing zeros without disturbing l-consistency checks upstream.
	for len(c) > 0 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	// Store the rotated buffers back so their capacity is reused next call.
	ws.c, ws.b, ws.tmp = c, b, tmp
	return c
}
