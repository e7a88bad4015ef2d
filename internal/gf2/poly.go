package gf2

// Poly is a polynomial over GF(2^m), stored as coefficients in ascending
// degree order: Poly{c0, c1, c2} = c0 + c1*x + c2*x^2. A nil or empty slice
// is the zero polynomial. Polynomials are kept normalized (no trailing zero
// coefficients) by the operations in this file.
type Poly []uint64

// NewPoly returns a normalized copy of coeffs.
func NewPoly(coeffs ...uint64) Poly {
	p := make(Poly, len(coeffs))
	copy(p, coeffs)
	return p.normalize()
}

func (p Poly) normalize() Poly {
	i := len(p)
	for i > 0 && p[i-1] == 0 {
		i--
	}
	return p[:i]
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p) == 0 }

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Eval evaluates p at the point x using Horner's rule.
func (p Poly) Eval(f *Field, x uint64) uint64 {
	var acc uint64
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ p[i]
	}
	return acc
}

// PolyAdd returns a + b (coefficient-wise XOR).
func PolyAdd(a, b Poly) Poly {
	return PolyAddInto(a, b, nil)
}

// PolyAddInto computes a + b into dst's backing array, growing it only
// when too small, and returns the normalized result. dst must not alias
// a or b.
func PolyAddInto(a, b, dst Poly) Poly {
	if len(a) < len(b) {
		a, b = b, a
	}
	dst = growPoly(dst, len(a))
	copy(dst, a)
	for i := range b {
		dst[i] ^= b[i]
	}
	return dst.normalize()
}

// PolyMul returns a * b over the field f.
func PolyMul(f *Field, a, b Poly) Poly {
	return PolyMulInto(f, a, b, nil)
}

// PolyMulInto computes a * b into dst's backing array, growing it only
// when too small, and returns the normalized result. dst must not alias
// a or b.
func PolyMulInto(f *Field, a, b, dst Poly) Poly {
	if a.IsZero() || b.IsZero() {
		return dst[:0]
	}
	dst = growPoly(dst, len(a)+len(b)-1)
	for i, ai := range a {
		f.MulAdd(dst[i:], b, ai)
	}
	return dst.normalize()
}

// growPoly resizes dst to n coefficients, all zero, reusing its backing
// array when large enough.
func growPoly(dst Poly, n int) Poly {
	if cap(dst) < n {
		return make(Poly, n)
	}
	dst = dst[:n]
	clear(dst)
	return dst
}

// PolyMod returns a mod b over the field f. It panics if b is zero.
func PolyMod(f *Field, a, b Poly) Poly {
	if b.IsZero() {
		panic("gf2: polynomial modulo by zero")
	}
	if a.Degree() < b.Degree() {
		return a.Clone()
	}
	r := a.Clone()
	invLead := f.Inv(b[len(b)-1])
	for r.Degree() >= b.Degree() {
		d := r.Degree() - b.Degree()
		f.MulAdd(r[d:], b, f.Mul(r[len(r)-1], invLead))
		r = r.normalize()
	}
	return r
}

// PolyDivMod returns the quotient and remainder of a / b.
func PolyDivMod(f *Field, a, b Poly) (q, r Poly) {
	if b.IsZero() {
		panic("gf2: polynomial division by zero")
	}
	if a.Degree() < b.Degree() {
		return nil, a.Clone()
	}
	r = a.Clone()
	q = make(Poly, a.Degree()-b.Degree()+1)
	invLead := f.Inv(b[len(b)-1])
	for r.Degree() >= b.Degree() {
		d := r.Degree() - b.Degree()
		c := f.Mul(r[len(r)-1], invLead)
		q[d] = c
		f.MulAdd(r[d:], b, c)
		r = r.normalize()
	}
	return q.normalize(), r
}

// PolyGCD returns the monic greatest common divisor of a and b.
func PolyGCD(f *Field, a, b Poly) Poly {
	a, b = a.Clone(), b.Clone()
	for !b.IsZero() {
		a, b = b, PolyMod(f, a, b)
	}
	return a.Monic(f)
}

// Monic scales p so its leading coefficient is 1. The zero polynomial is
// returned unchanged.
func (p Poly) Monic(f *Field) Poly {
	if p.IsZero() {
		return p
	}
	lead := p[len(p)-1]
	if lead == 1 {
		return p
	}
	inv := f.Inv(lead)
	w := f.Window(inv)
	q := make(Poly, len(p))
	for i, c := range p {
		q[i] = w.Mul(c)
	}
	return q
}

// PolySqrMod returns p^2 mod m. In characteristic 2, squaring a polynomial
// squares each coefficient and doubles each exponent.
func PolySqrMod(f *Field, p, m Poly) Poly {
	if p.IsZero() {
		return nil
	}
	sq := make(Poly, 2*len(p)-1)
	for i, c := range p {
		if c != 0 {
			sq[2*i] = f.Sqr(c)
		}
	}
	return PolyMod(f, Poly(sq).normalize(), m)
}

// PolyFrobeniusPower returns x^(2^k) mod m, computed by k modular squarings.
func PolyFrobeniusPower(f *Field, k uint, m Poly) Poly {
	p := NewPoly(0, 1) // x
	p = PolyMod(f, p, m)
	for i := uint(0); i < k; i++ {
		p = PolySqrMod(f, p, m)
	}
	return p
}
