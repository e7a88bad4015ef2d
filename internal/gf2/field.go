// Package gf2 implements arithmetic in binary extension fields GF(2^m) and
// polynomial algebra over them.
//
// PBS uses BCH codes whose symbols live in GF(2^m) with m = log2(n+1), where
// n is the parity-bitmap length (§2.5 of the paper). The PinSketch baseline
// needs GF(2^32) because its "bitmap" spans the whole 32-bit universe. Two
// multiplication strategies are used:
//
//   - m ≤ 16: discrete log/antilog tables (one multiply = two lookups).
//   - m > 16: carry-less shift-and-add multiply with 4-bit windowing,
//     followed by byte-at-a-time modular reduction using a precomputed
//     256-entry table.
//
// Field elements are represented as uint64 values whose low m bits are the
// coefficients of the polynomial-basis representation.
package gf2

import (
	"fmt"
	"math/bits"
	"sync"
)

// primitivePolys[m] is an irreducible (indeed primitive) polynomial of
// degree m over GF(2), including the leading x^m term. Index 0 and 1 are
// unused. These are standard minimal-weight primitive polynomials; their
// irreducibility is verified in the test suite.
var primitivePolys = [33]uint64{
	2:  0x7,         // x^2 + x + 1
	3:  0xB,         // x^3 + x + 1
	4:  0x13,        // x^4 + x + 1
	5:  0x25,        // x^5 + x^2 + 1
	6:  0x43,        // x^6 + x + 1
	7:  0x89,        // x^7 + x^3 + 1
	8:  0x11D,       // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,       // x^9 + x^4 + 1
	10: 0x409,       // x^10 + x^3 + 1
	11: 0x805,       // x^11 + x^2 + 1
	12: 0x1053,      // x^12 + x^6 + x^4 + x + 1
	13: 0x201B,      // x^13 + x^4 + x^3 + x + 1
	14: 0x4443,      // x^14 + x^10 + x^6 + x + 1
	15: 0x8003,      // x^15 + x + 1
	16: 0x1100B,     // x^16 + x^12 + x^3 + x + 1
	17: 0x20009,     // x^17 + x^3 + 1
	18: 0x40081,     // x^18 + x^7 + 1
	19: 0x80027,     // x^19 + x^5 + x^2 + x + 1
	20: 0x100009,    // x^20 + x^3 + 1
	21: 0x200005,    // x^21 + x^2 + 1
	22: 0x400003,    // x^22 + x + 1
	23: 0x800021,    // x^23 + x^5 + 1
	24: 0x100001B,   // x^24 + x^4 + x^3 + x + 1
	25: 0x2000009,   // x^25 + x^3 + 1
	26: 0x4000047,   // x^26 + x^6 + x^2 + x + 1
	27: 0x8000027,   // x^27 + x^5 + x^2 + x + 1
	28: 0x10000009,  // x^28 + x^3 + 1
	29: 0x20000005,  // x^29 + x^2 + 1
	30: 0x40000053,  // x^30 + x^6 + x^4 + x + 1
	31: 0x80000009,  // x^31 + x^3 + 1
	32: 0x104C11DB7, // x^32 + x^26 + ... + 1 (the CRC-32 polynomial, primitive)
}

// MaxM is the largest supported field degree.
const MaxM = 32

// tableThreshold is the largest m for which log/antilog tables are built.
const tableThreshold = 16

// Field represents the finite field GF(2^m).
//
// A Field is immutable after construction, but for the solution table
// QuadRoot builds once, and safe for concurrent use.
type Field struct {
	m    uint
	poly uint64 // irreducible polynomial, including the x^m term
	mask uint64 // 2^m - 1
	ord  uint64 // multiplicative group order, 2^m - 1

	// log/exp tables for m <= tableThreshold. exp has length 2*ord so that
	// exp[logA+logB] never needs an explicit modular reduction.
	logT []uint32
	expT []uint64

	// red[b] = (b << m) mod poly, used for byte-at-a-time reduction of
	// carry-less products when no tables are present.
	red [256]uint64

	// quad[u] is a y with y² + y = u, 0 where there is none; built on first
	// use by QuadRoot, for table fields only.
	quadOnce sync.Once
	quad     []uint16
}

// fieldCache holds each field, built the first time it is asked for: the
// log/antilog tables of the larger tabled degrees run to megabytes, and a
// process touches a handful of degrees, not all of them.
var fieldCache [MaxM + 1]struct {
	once sync.Once
	f    *Field
}

// NewField returns the field GF(2^m) for 2 <= m <= 32. Fields are cached and
// shared; calling NewField repeatedly with the same m is cheap.
func NewField(m uint) (*Field, error) {
	if m < 2 || m > MaxM {
		return nil, fmt.Errorf("gf2: unsupported field degree m=%d (want 2..%d)", m, MaxM)
	}
	slot := &fieldCache[m]
	slot.once.Do(func() { slot.f = newField(m) })
	return slot.f, nil
}

// MustField is like NewField but panics on an invalid degree. Intended for
// package initialization with compile-time-known degrees.
func MustField(m uint) *Field {
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

func newField(m uint) *Field {
	f := &Field{
		m:    m,
		poly: primitivePolys[m],
		mask: (uint64(1) << m) - 1,
		ord:  (uint64(1) << m) - 1,
	}
	// Byte-reduction table: for each byte b, red[b] = b(x)*x^m mod poly.
	for b := 0; b < 256; b++ {
		v := uint64(b) << m
		for i := m + 7; ; i-- {
			if v&(uint64(1)<<i) != 0 {
				v ^= f.poly << (i - m)
			}
			if i == m {
				break
			}
		}
		f.red[b] = v & f.mask
	}
	if m <= tableThreshold {
		n := int(f.ord)
		f.logT = make([]uint32, n+1)
		f.expT = make([]uint64, 2*n)
		x := uint64(1)
		for i := 0; i < n; i++ {
			f.expT[i] = x
			f.expT[i+n] = x
			f.logT[x] = uint32(i)
			x <<= 1
			if x > f.mask {
				x ^= f.poly
			}
		}
	}
	return f
}

// M returns the field degree m.
func (f *Field) M() uint { return f.m }

// Order returns 2^m - 1, the order of the multiplicative group. This is also
// the largest valid element value and the PBS bitmap length n.
func (f *Field) Order() uint64 { return f.ord }

// Poly returns the field's irreducible polynomial (including the x^m term).
func (f *Field) Poly() uint64 { return f.poly }

// Valid reports whether x is a canonical element of the field.
func (f *Field) Valid(x uint64) bool { return x <= f.mask }

// Add returns a + b (= a - b) in GF(2^m).
func (f *Field) Add(a, b uint64) uint64 { return a ^ b }

// Mul returns a * b in GF(2^m).
func (f *Field) Mul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if f.logT != nil {
		return f.expT[uint64(f.logT[a])+uint64(f.logT[b])]
	}
	return f.reduce(clmul(a, b))
}

// Sqr returns a^2 in GF(2^m). Squaring is a linear map in characteristic 2
// and is cheaper than a general multiply on the table-less path.
func (f *Field) Sqr(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	if f.logT != nil {
		l := 2 * uint64(f.logT[a])
		if l >= f.ord {
			l -= f.ord
		}
		return f.expT[l]
	}
	return f.reduce(spreadBits(a))
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func (f *Field) Inv(a uint64) uint64 {
	if a == 0 {
		panic("gf2: inverse of zero")
	}
	if f.logT != nil {
		l := f.ord - uint64(f.logT[a])
		if l == f.ord {
			l = 0
		}
		return f.expT[l]
	}
	// a^(2^m - 2) via square-and-multiply. 2^m-2 = 0b111...10 (m-1 ones).
	result := uint64(1)
	sq := a
	for i := uint(1); i < f.m; i++ {
		sq = f.Sqr(sq)
		result = f.Mul(result, sq)
	}
	return result
}

// Div returns a / b. It panics if b == 0.
func (f *Field) Div(a, b uint64) uint64 {
	if b == 0 {
		panic("gf2: division by zero")
	}
	if a == 0 {
		return 0
	}
	if f.logT != nil {
		la, lb := uint64(f.logT[a]), uint64(f.logT[b])
		return f.expT[la+f.ord-lb]
	}
	return f.Mul(a, f.Inv(b))
}

// Pow returns a^e in GF(2^m), with the convention Pow(0, 0) == 1.
func (f *Field) Pow(a uint64, e uint64) uint64 {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	if f.logT != nil {
		l := (uint64(f.logT[a]) % f.ord) * (e % f.ord) % f.ord
		return f.expT[l]
	}
	result := uint64(1)
	base := a
	for e > 0 {
		if e&1 != 0 {
			result = f.Mul(result, base)
		}
		base = f.Sqr(base)
		e >>= 1
	}
	return result
}

// Exp returns the primitive element α raised to the power e (mod 2^m - 1).
func (f *Field) Exp(e uint64) uint64 {
	if f.logT != nil {
		return f.expT[e%f.ord]
	}
	return f.Pow(2, e%f.ord) // α = x = 2 in polynomial basis
}

// Trace returns the absolute trace Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)),
// which is always 0 or 1.
func (f *Field) Trace(a uint64) uint64 {
	t := a
	s := a
	for i := uint(1); i < f.m; i++ {
		s = f.Sqr(s)
		t ^= s
	}
	return t
}

// Tabled reports whether the field has log/antilog tables (m ≤ 16), which
// QuadRoot and Chien need.
func (f *Field) Tabled() bool { return f.logT != nil }

// QuadRoot returns a solution y of the Artin–Schreier equation y² + y = u
// (the other is y + 1), or 0 when there is none — Tr(u) = 1 — or u = 0. It
// gives quadratics in characteristic 2 closed-form roots. The answers come
// from a 2^m-entry table built on first use; the field must be Tabled.
func (f *Field) QuadRoot(u uint64) uint64 {
	f.quadOnce.Do(func() {
		f.quad = make([]uint16, f.ord+1)
		for y := uint64(2); y <= f.ord; y++ {
			f.quad[f.Sqr(y)^y] = uint16(y)
		}
	})
	return uint64(f.quad[u])
}

// MulAdd XORs c·src[i] into dst[i] for every i: the row operation of
// polynomial multiplication and division and of Berlekamp–Massey. Table
// fields do it in the log domain, c's logarithm looked up once.
func (f *Field) MulAdd(dst, src []uint64, c uint64) {
	if c == 0 {
		return
	}
	dst = dst[:len(src)]
	if f.logT != nil {
		expc := f.expT[f.logT[c]:] // expc[log b] = c·b
		for i, b := range src {
			if b != 0 {
				dst[i] ^= expc[f.logT[b]]
			}
		}
		return
	}
	w := f.Window(c)
	for i, b := range src {
		if b != 0 {
			dst[i] ^= w.Mul(b)
		}
	}
}

// DotRev returns Σ a[i]·b[len(b)−1−i] over a's indices: the top coefficient
// a contributes to the product a·b, and Berlekamp–Massey's discrepancy. b is
// at least as long as a.
func (f *Field) DotRev(a, b []uint64) uint64 {
	var d uint64
	b = b[len(b)-len(a):]
	if f.logT == nil {
		for i, x := range a {
			d ^= f.Mul(x, b[len(a)-1-i])
		}
		return d
	}
	logT, expT := f.logT, f.expT
	for i, x := range a {
		if y := b[len(a)-1-i]; x != 0 && y != 0 {
			d ^= expT[logT[x]+logT[y]]
		}
	}
	return d
}

// MulWindow precomputes a 16-entry carry-less multiplication window for the
// fixed multiplicand a, enabling repeated multiplications by a at roughly
// half the cost of Mul on the table-less path. On the table path it simply
// falls back to table multiplies.
type MulWindow struct {
	f   *Field
	a   uint64
	tab [16]uint64
}

// Window returns a MulWindow for repeated multiplication by a. It is
// returned by value so hot paths can keep the window on the stack instead
// of allocating per multiplicand.
func (f *Field) Window(a uint64) MulWindow {
	w := MulWindow{f: f, a: a}
	if f.logT == nil {
		for i := 1; i < 16; i++ {
			w.tab[i] = clmul(a, uint64(i))
		}
	}
	return w
}

// Mul returns w.a * b.
//
// Operands have degree <= 31, so tab entries have degree <= 34 and the
// shifted accumulator degree stays <= 62: everything fits in one uint64 and
// a single final reduction suffices.
func (w *MulWindow) Mul(b uint64) uint64 {
	if w.f.logT != nil || w.a == 0 || b == 0 {
		return w.f.Mul(w.a, b)
	}
	var acc uint64
	for shift := 28; shift >= 0; shift -= 4 {
		acc = (acc << 4) ^ w.tab[(b>>uint(shift))&0xF]
	}
	return w.f.reduce(acc)
}

// reduce reduces a carry-less product (degree <= 62) modulo the field
// polynomial using the byte table.
func (f *Field) reduce(v uint64) uint64 {
	for v > f.mask {
		// Find the highest byte-aligned chunk above bit m.
		shift := uint(0)
		t := v >> f.m
		for t>>8 != 0 {
			t >>= 8
			shift += 8
		}
		chunk := (v >> (f.m + shift)) & 0xFF
		v ^= (chunk << (f.m + shift)) // clear those bits
		v ^= f.red[chunk] << shift
	}
	return v
}

// clmul computes the carry-less (XOR) product of a and b. Both operands must
// have degree <= 31 so the product fits in 64 bits.
func clmul(a, b uint64) uint64 {
	var r uint64
	for b != 0 {
		r ^= a << uint(bits.TrailingZeros64(b))
		b &= b - 1
	}
	return r
}

// spreadBits computes the carry-less square of a: bit i of a moves to bit 2i.
func spreadBits(a uint64) uint64 {
	var r uint64
	for i := uint(0); i < 32; i++ {
		if a&(1<<i) != 0 {
			r |= 1 << (2 * i)
		}
	}
	return r
}
