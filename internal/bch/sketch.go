// Package bch implements BCH "syndrome sketches" of sets, the
// error-correction substrate of both PBS (§2.5 of the paper) and the
// PinSketch baseline (§7). It is a from-scratch work-alike of the
// Minisketch library the paper uses.
//
// A sketch of capacity t over GF(2^m) stores the t odd power sums
// σ_k = Σ_{x∈S} x^k for k = 1, 3, ..., 2t−1 of a set S ⊆ {1, ..., 2^m−1}.
// Because the field has characteristic 2, adding an element twice cancels
// it, and XORing two sketches yields the sketch of the symmetric
// difference. If |S| ≤ t, S can be recovered from its sketch: the even
// power sums follow from σ_{2k} = σ_k², Berlekamp–Massey finds the error
// locator polynomial, and its roots (inverted) are the elements of S.
//
// In PBS the "set" is the set of bit positions where Alice's and Bob's
// parity bitmaps differ; in PinSketch it is the set difference A△B itself
// over the 32-bit universe.
package bch

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"pbs/internal/gf2"
	"pbs/internal/wire"
)

// ErrDecodeFailure is returned by Decode when the sketched set has more
// elements than the sketch's capacity t (or the syndromes are otherwise
// inconsistent). This corresponds to the BCH-decoding exception of §3.2.
var ErrDecodeFailure = errors.New("bch: decoding failure (difference exceeds capacity)")

// Sketch is a BCH syndrome sketch with capacity t over GF(2^m).
type Sketch struct {
	f   *gf2.Field
	t   int
	odd []uint64 // odd syndromes σ1, σ3, ..., σ_{2t−1}

	// pow is the shared odd-power table Add reads for small fields, nil
	// for m > powTableMaxM.
	pow *powTable
}

// powTableMaxM is the largest field degree whose odd powers are tabled.
// PBS parity bitmaps encode about half their 2^m − 1 positions per group per
// round, so for them a syndrome update is worth a table row. The optimizer's
// grid is m ∈ 6..11 and the tables stop one short of its top: at 2 bytes an
// entry they stay within a few hundred KiB for every shape up to m = 10,
// and each further degree doubles the rows. m ≥ 11, and the wide fields
// (PinSketch's GF(2^32)) that cannot be tabled at all, pay one field
// multiplication per syndrome instead.
const powTableMaxM = 10

// powTable maps x ∈ [1, 2^m) to its first stride odd powers
// (x, x³, …, x^(2·stride−1)), packed four 16-bit lanes to a word, low lane
// first, so one XOR moves four syndromes. stride is the sketch capacity
// rounded up to a power of two, and to at least one word, so that sketches
// of similar capacity share a table and a row stays within a cache line or
// two. Packed, an entry costs the 2 bytes it would in a []uint16.
type powTable struct {
	lgw  uint     // log2 of the words in a row
	rows []uint64 // lane k of rows[x<<lgw:] is x^(2k+1)
}

// row returns x's packed powers, and whatever rows follow them.
func (p *powTable) row(x uint64) []uint64 { return p.rows[x<<p.lgw:] }

// lane returns 16-bit lane k of the packed words w.
func lane(w []uint64, k int) uint64 { return w[k>>2] >> (k & 3 << 4) & 0xffff }

// powTables holds the lazily built tables by field degree and log2 of the
// row width in words.
var powTables [powTableMaxM + 1][powTableMaxM - 2]struct {
	once sync.Once
	tab  *powTable
}

// powTableFor returns the shared table covering capacity t over f, building
// it on first use.
func powTableFor(f *gf2.Field, t int) *powTable {
	lgw := uint(bits.Len(uint(t-1) >> 2))
	slot := &powTables[f.M()][lgw]
	slot.once.Do(func() {
		tab := &powTable{lgw: lgw}
		tab.rows = make([]uint64, (f.Order()+1)<<lgw)
		row := make([]uint64, 4<<lgw)
		for x := uint64(1); x <= f.Order(); x++ {
			clear(row)
			addOddPowers(f, x, row)
			for k, p := range row {
				tab.rows[int(x)<<lgw+k>>2] |= p << (k & 3 << 4)
			}
		}
		slot.tab = tab
	})
	return slot.tab
}

// addOddPowers XORs x, x³, …, x^(2·len(odd)−1) into odd, one field
// multiplication per syndrome.
func addOddPowers(f *gf2.Field, x uint64, odd []uint64) {
	w := f.Window(f.Sqr(x))
	p := x
	for k := range odd {
		odd[k] ^= p
		if k+1 < len(odd) {
			p = w.Mul(p)
		}
	}
}

// New returns an empty sketch over GF(2^m) that can decode up to t set
// elements. Valid elements are 1..2^m−1 (zero is excluded from the universe,
// as in §2.1 of the paper).
func New(m uint, t int) (*Sketch, error) {
	s, err := View(m, t, nil)
	if err != nil {
		return nil, err
	}
	s.odd = make([]uint64, t)
	return &s, nil
}

// View returns a sketch of shape (m, t) over storage the caller owns: odd,
// t words long, holds the syndromes as they stand (Reset empties them), and
// nothing is allocated. A nil odd gives the bare shape, good only for Over.
// A round keeps the syndromes of all its scopes in one slab this way.
func View(m uint, t int, odd []uint64) (Sketch, error) {
	f, err := gf2.NewField(m)
	if err != nil {
		return Sketch{}, err
	}
	if t < 1 {
		return Sketch{}, fmt.Errorf("bch: capacity t=%d must be >= 1", t)
	}
	if uint64(t) > f.Order()/2 {
		return Sketch{}, fmt.Errorf("bch: capacity t=%d too large for field order %d", t, f.Order())
	}
	s := Sketch{f: f, t: t, odd: odd}
	if m <= powTableMaxM {
		s.pow = powTableFor(f, t)
	}
	return s, nil
}

// Over returns a sketch of s's shape over odd (see View).
func (s Sketch) Over(odd []uint64) Sketch {
	s.odd = odd[:s.t:s.t]
	return s
}

// MustNew is like New but panics on invalid parameters.
func MustNew(m uint, t int) *Sketch {
	s, err := New(m, t)
	if err != nil {
		panic(err)
	}
	return s
}

// M returns the field degree.
func (s *Sketch) M() uint { return s.f.M() }

// T returns the sketch capacity.
func (s *Sketch) T() int { return s.t }

// Bits returns the serialized size in bits: t·m, matching the "t·log n"
// codeword-length term of the paper.
func (s *Sketch) Bits() int { return s.t * int(s.f.M()) }

// Clone returns an independent copy of s.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{f: s.f, t: s.t, odd: make([]uint64, len(s.odd)), pow: s.pow}
	copy(c.odd, s.odd)
	return c
}

// Add toggles element x in the sketched set. It panics if x is zero or out
// of field range: the caller owns input validation in this hot path.
func (s *Sketch) Add(x uint64) {
	s.mustHold(x)
	s.toggle(x)
}

func (s *Sketch) mustHold(x uint64) {
	if x == 0 || !s.f.Valid(x) {
		panic(fmt.Sprintf("bch: element %#x out of range for GF(2^%d)", x, s.f.M()))
	}
}

// toggle is Add past its range check: for small fields, one shared table row.
func (s *Sketch) toggle(x uint64) {
	if s.pow == nil {
		addOddPowers(s.f, x, s.odd)
		return
	}
	row := s.pow.row(x)
	for k := range s.odd {
		s.odd[k] ^= lane(row, k)
	}
}

// AddBitmap toggles every set bit of parity — bin b is bit b&63 of word
// b>>6, over bins [0, n] — in the sketched set: the bitmap's codeword when
// s starts empty, its XOR with a peer's codeword when s starts as that. The
// bitmap's shape is checked once, with Add's panic: bin 0 is no element and
// nothing lies above n. At the shapes PBS plans (m ≥ 6, 4 < t ≤ 16: whole
// bitmap words, rows of two or four table words) the rows of the set bits are
// folded packed and unpacked into the syndromes once.
func (s *Sketch) AddBitmap(parity []uint64) {
	n := s.f.Order()
	if uint64(len(parity)) != n>>6+1 || parity[0]&1 != 0 || parity[n>>6]>>(n&63+1) != 0 {
		panic(fmt.Sprintf("bch: parity bitmap of %d words out of range for GF(2^%d)", len(parity), s.f.M()))
	}
	var a [4]uint64
	switch blocks := s.pow != nil && n >= 63; {
	case blocks && s.pow.lgw == 1:
		a[0], a[1] = fold2(s.pow.rows, parity)
	case blocks && s.pow.lgw == 2:
		a[0], a[1], a[2], a[3] = fold4(s.pow.rows, parity)
	default:
		for i, w := range parity {
			for ; w != 0; w &= w - 1 {
				s.toggle(uint64(i<<6 + bits.TrailingZeros64(w)))
			}
		}
		return
	}
	for k := range s.odd {
		s.odd[k] ^= lane(a[:], k)
	}
}

// fold2 and fold4 XOR the two- and four-word rows of the set bits of parity,
// the accumulators in registers. Each bitmap word indexes a block of 64 rows
// whose constant size lets the compiler drop the per-row bounds checks. They
// stay out of line because, inlined, the register allocator spills the
// accumulators into the bit loop; and they clear a bit through its index, not
// with w &= w − 1, because that keeps the index's register from being the
// last row load's target — on which the next bit scan, whose instruction
// reads its output register, would then wait. (Measured, not deduced: 1.4×.)
//
//go:noinline
func fold2(rows, parity []uint64) (a0, a1 uint64) {
	for i, w := range parity {
		blk := (*[64 * 2]uint64)(rows[i<<7:])
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			a0, a1 = a0^blk[bit<<1], a1^blk[bit<<1+1]
			w &^= 1 << (bit & 63)
		}
	}
	return a0, a1
}

//go:noinline
func fold4(rows, parity []uint64) (a0, a1, a2, a3 uint64) {
	for i, w := range parity {
		blk := (*[64 * 4]uint64)(rows[i<<8:])
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			j := bit << 2
			a0, a1, a2, a3 = a0^blk[j], a1^blk[j+1], a2^blk[j+2], a3^blk[j+3]
			w &^= 1 << (bit & 63)
		}
	}
	return a0, a1, a2, a3
}

// AddSet toggles every element of set, with Add's panic on a bad one. For
// small fields it goes through the elements' parity bitmap, so a set costs
// what its bitmap does.
func (s *Sketch) AddSet(set []uint64) {
	if s.pow == nil {
		for _, x := range set {
			s.Add(x)
		}
		return
	}
	var parity [1 << powTableMaxM >> 6]uint64
	for _, x := range set {
		s.mustHold(x)
		parity[x>>6] ^= 1 << (x & 63)
	}
	s.AddBitmap(parity[:s.f.Order()>>6+1])
}

// Xor merges other into s, so s becomes the sketch of the symmetric
// difference of the two underlying sets.
func (s *Sketch) Xor(other *Sketch) error {
	if s.f != other.f || s.t != other.t {
		return fmt.Errorf("bch: sketch shape mismatch (m=%d,t=%d vs m=%d,t=%d)",
			s.f.M(), s.t, other.f.M(), other.t)
	}
	for i := range s.odd {
		s.odd[i] ^= other.odd[i]
	}
	return nil
}

// Empty reports whether all syndromes are zero, which for difference
// sketches means "no differences detected" (up to the vanishing-XOR
// corner case handled by the checksum layer above).
func (s *Sketch) Empty() bool {
	for _, v := range s.odd {
		if v != 0 {
			return false
		}
	}
	return true
}

// AppendTo bit-packs the sketch onto w (t syndromes of m bits each).
func (s *Sketch) AppendTo(w *wire.Writer) {
	for _, v := range s.odd {
		w.WriteBits(v, s.f.M())
	}
}

// ReadFrom parses a sketch with shape (m, t) from r.
func ReadFrom(r *wire.Reader, m uint, t int) (*Sketch, error) {
	s, err := New(m, t)
	if err != nil {
		return nil, err
	}
	if err := s.ReadInto(r); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadInto overwrites s's syndromes with a serialized sketch of the same
// shape read from r, letting callers reuse one Sketch across many parses.
func (s *Sketch) ReadInto(r *wire.Reader) error {
	for i := range s.odd {
		v, err := r.ReadBits(s.f.M())
		if err != nil {
			return err
		}
		s.odd[i] = v
	}
	return nil
}

// Reset clears the sketch back to the empty set, keeping its shape and
// storage so it can be refilled without allocation.
func (s *Sketch) Reset() { clear(s.odd) }

// Decode recovers the sketched set. On success it returns the elements in
// ascending order. It returns ErrDecodeFailure when the set cannot be
// recovered (more than t elements, or inconsistent syndromes).
//
// Decode allocates a fresh workspace per call; hot paths should hold a
// Decoder and call DecodeInto instead.
func (s *Sketch) Decode() ([]uint64, error) {
	var ws Decoder
	return s.DecodeInto(&ws, nil)
}

// traceRootFind finds the roots of p using the Berlekamp trace algorithm:
// first verify that p splits completely over f via gcd(p, x^(2^m) − x),
// then recursively split with random trace polynomials.
func traceRootFind(f *gf2.Field, p gf2.Poly) ([]uint64, error) {
	p = p.Monic(f)
	// Roots must be distinct: a locator polynomial from a true difference
	// set is always squarefree; enforce it with gcd(p, p').
	if !squarefree(f, p) {
		return nil, ErrDecodeFailure
	}
	xq := gf2.PolyFrobeniusPower(f, f.M(), p) // x^(2^m) mod p
	g := gf2.PolyGCD(f, p, gf2.PolyAdd(xq, gf2.NewPoly(0, 1)))
	if g.Degree() != p.Degree() {
		return nil, ErrDecodeFailure // some roots lie outside GF(2^m)
	}
	roots := make([]uint64, 0, g.Degree())
	var betaCtr uint64 = 1
	var split func(g gf2.Poly) error
	split = func(g gf2.Poly) error {
		switch g.Degree() {
		case 0:
			return nil
		case 1:
			// monic x + c has root c
			roots = append(roots, g[0])
			return nil
		}
		for attempts := 0; attempts < 64; attempts++ {
			beta := f.Exp(betaCtr)
			betaCtr += 0x9E3779B97F4A7C15 % f.Order()
			tr := tracePolyMod(f, beta, g)
			w := gf2.PolyGCD(f, g, tr)
			if w.Degree() > 0 && w.Degree() < g.Degree() {
				q, _ := gf2.PolyDivMod(f, g, w)
				if err := split(w); err != nil {
					return err
				}
				return split(q.Monic(f))
			}
			// Also try the complementary cofactor via Tr + 1.
			trc := gf2.PolyAdd(tr, gf2.NewPoly(1))
			w = gf2.PolyGCD(f, g, trc)
			if w.Degree() > 0 && w.Degree() < g.Degree() {
				q, _ := gf2.PolyDivMod(f, g, w)
				if err := split(w); err != nil {
					return err
				}
				return split(q.Monic(f))
			}
		}
		return ErrDecodeFailure
	}
	if err := split(g); err != nil {
		return nil, err
	}
	return roots, nil
}

// squarefree reports whether p has no repeated roots, via gcd(p, p') == 1.
func squarefree(f *gf2.Field, p gf2.Poly) bool {
	// Formal derivative in characteristic 2: odd-degree terms survive.
	d := make(gf2.Poly, 0, len(p))
	for i := 1; i < len(p); i += 2 {
		for len(d) < i-1 {
			d = append(d, 0)
		}
		d = append(d, p[i])
	}
	d = gf2.NewPoly(d...)
	if d.IsZero() {
		return false // p is a square of another polynomial
	}
	return gf2.PolyGCD(f, p, d).Degree() == 0
}

// tracePolyMod computes Tr(β·x) mod g = Σ_{i=0}^{m−1} (β·x)^(2^i) mod g.
// The accumulator double-buffers through PolyAddInto so the m−1 additions
// reuse two backing arrays instead of allocating one each.
func tracePolyMod(f *gf2.Field, beta uint64, g gf2.Poly) gf2.Poly {
	cur := gf2.PolyMod(f, gf2.NewPoly(0, beta), g) // β·x mod g
	acc := cur.Clone()
	var buf gf2.Poly
	for i := uint(1); i < f.M(); i++ {
		cur = gf2.PolySqrMod(f, cur, g)
		buf = gf2.PolyAddInto(acc, cur, buf)
		acc, buf = buf, acc
	}
	return acc
}
