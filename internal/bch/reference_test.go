package bch

import (
	"pbs/internal/gf2"
)

// This file preserves the pre-workspace decode kernel, and the multiply path
// of Add, verbatim. They serve two purposes: differential testing
// (DecodeInto and the table-driven Add must agree with them) and the
// baseline for BenchmarkDecodeKernel's speedup claim.

// referenceAdd is the multiply path of Sketch.Add — one windowed field
// multiplication per syndrome — kept verbatim as the oracle for the
// table-driven update small fields use.
func referenceAdd(f *gf2.Field, x uint64, odd []uint64) {
	xsq := f.Sqr(x)
	w := f.Window(xsq)
	p := x
	for k := range odd {
		odd[k] ^= p
		if k+1 < len(odd) {
			p = w.Mul(p)
		}
	}
}

// referenceDecode is the old Sketch.Decode: allocating Berlekamp–Massey,
// Horner-evaluation root search, allocating verification pass.
func referenceDecode(s *Sketch) ([]uint64, error) {
	if s.Empty() {
		return nil, nil
	}
	syn := make([]uint64, 2*s.t+1)
	for i := 1; i <= 2*s.t; i++ {
		if i%2 == 1 {
			syn[i] = s.odd[(i-1)/2]
		} else {
			syn[i] = s.f.Sqr(syn[i/2])
		}
	}
	locator := refBerlekampMassey(s.f, syn[1:])
	deg := locator.Degree()
	if deg < 1 || deg > s.t {
		return nil, ErrDecodeFailure
	}
	roots, err := refFindRoots(s.f, locator)
	if err != nil {
		return nil, err
	}
	if len(roots) != deg {
		return nil, ErrDecodeFailure
	}
	elems := make([]uint64, len(roots))
	for i, r := range roots {
		elems[i] = s.f.Inv(r)
	}
	check := make([]uint64, s.t)
	for _, x := range elems {
		w := s.f.Window(s.f.Sqr(x))
		p := x
		for k := 0; k < s.t; k++ {
			check[k] ^= p
			if k+1 < s.t {
				p = w.Mul(p)
			}
		}
	}
	for k := range check {
		if check[k] != s.odd[k] {
			return nil, ErrDecodeFailure
		}
	}
	return elems, nil
}

func refBerlekampMassey(f *gf2.Field, syn []uint64) gf2.Poly {
	c := gf2.NewPoly(1)
	b := gf2.NewPoly(1)
	var l int
	shift := 1
	bInv := uint64(1)
	for n := 0; n < len(syn); n++ {
		d := syn[n]
		for i := 1; i <= l && i < len(c); i++ {
			d ^= f.Mul(c[i], syn[n-i])
		}
		if d == 0 {
			shift++
			continue
		}
		coef := f.Mul(d, bInv)
		nc := c.Clone()
		for len(nc) < len(b)+shift {
			nc = append(nc, 0)
		}
		w := f.Window(coef)
		for i, bi := range b {
			if bi != 0 {
				nc[i+shift] ^= w.Mul(bi)
			}
		}
		if 2*l <= n {
			b = c
			bInv = f.Inv(d)
			l = n + 1 - l
			shift = 1
		} else {
			shift++
		}
		c = gf2.Poly(nc)
	}
	for len(c) > 0 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	return c
}

const refChienThreshold = 16

func refFindRoots(f *gf2.Field, p gf2.Poly) ([]uint64, error) {
	if p.Degree() < 1 {
		return nil, nil
	}
	if f.M() <= refChienThreshold {
		return refChienSearch(f, p)
	}
	return traceRootFind(f, p)
}

// refChienSearch exhaustively evaluates p at every nonzero field element
// with a full Horner evaluation per candidate.
func refChienSearch(f *gf2.Field, p gf2.Poly) ([]uint64, error) {
	var roots []uint64
	deg := p.Degree()
	for x := uint64(1); x <= f.Order(); x++ {
		if p.Eval(f, x) == 0 {
			roots = append(roots, x)
			if len(roots) == deg {
				break
			}
		}
	}
	if len(roots) != deg {
		return nil, ErrDecodeFailure
	}
	return roots, nil
}
