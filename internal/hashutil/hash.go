// Package hashutil provides the hash-function substrate for all
// reconciliation schemes in this repository.
//
// The paper uses the xxHash library for "all hash functions in PBS,
// including those in the ToW estimator" (§8). We re-implement xxHash64 from
// scratch (same published algorithm) for the partitioning hashes, plus a
// 4-wise-independent polynomial hash family over GF(2^61−1) for the
// Tug-of-War estimator, which requires 4-wise independence for its variance
// bound (§6.1, Fact 1).
package hashutil

import "math/bits"

// xxHash64 prime constants from the reference specification.
const (
	prime64x1 = 0x9E3779B185EBCA87
	prime64x2 = 0xC2B2AE3D27D4EB4F
	prime64x3 = 0x165667B19E3779F9
	prime64x4 = 0x85EBCA77C2B2AE63
	prime64x5 = 0x27D4EB2F165667C5
)

// XXH64Uint64 computes the xxHash64 of the 8-byte little-endian encoding of
// v with the given seed. This is the 8-byte specialization of the reference
// algorithm, which is the only input width the reconciliation code needs.
func XXH64Uint64(v, seed uint64) uint64 {
	h := seed + prime64x5 + 8
	k := v * prime64x2
	k = bits.RotateLeft64(k, 31)
	k *= prime64x1
	h ^= k
	h = bits.RotateLeft64(h, 27)*prime64x1 + prime64x4
	// Avalanche.
	h ^= h >> 33
	h *= prime64x2
	h ^= h >> 29
	h *= prime64x3
	h ^= h >> 32
	return h
}

// XXH64 computes xxHash64 of an arbitrary byte slice with the given seed,
// per the reference specification.
func XXH64(data []byte, seed uint64) uint64 {
	n := len(data)
	var h uint64
	i := 0
	if n >= 32 {
		v1 := seed + prime64x1 + prime64x2
		v2 := seed + prime64x2
		v3 := seed
		v4 := seed - prime64x1
		for ; i+32 <= n; i += 32 {
			v1 = round64(v1, le64(data[i:]))
			v2 = round64(v2, le64(data[i+8:]))
			v3 = round64(v3, le64(data[i+16:]))
			v4 = round64(v4, le64(data[i+24:]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound64(h, v1)
		h = mergeRound64(h, v2)
		h = mergeRound64(h, v3)
		h = mergeRound64(h, v4)
	} else {
		h = seed + prime64x5
	}
	h += uint64(n)
	for ; i+8 <= n; i += 8 {
		h ^= round64(0, le64(data[i:]))
		h = bits.RotateLeft64(h, 27)*prime64x1 + prime64x4
	}
	if i+4 <= n {
		h ^= uint64(le32(data[i:])) * prime64x1
		h = bits.RotateLeft64(h, 23)*prime64x2 + prime64x3
		i += 4
	}
	for ; i < n; i++ {
		h ^= uint64(data[i]) * prime64x5
		h = bits.RotateLeft64(h, 11) * prime64x1
	}
	h ^= h >> 33
	h *= prime64x2
	h ^= h >> 29
	h *= prime64x3
	h ^= h >> 32
	return h
}

func round64(acc, input uint64) uint64 {
	acc += input * prime64x2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime64x1
}

func mergeRound64(acc, val uint64) uint64 {
	acc ^= round64(0, val)
	return acc*prime64x1 + prime64x4
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// SplitMix64 advances the SplitMix64 PRNG state and returns the next output.
// It is used to derive independent hash seeds deterministically from a
// master seed (each round of PBS needs a fresh, mutually independent hash
// function, §2.4).
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seeds derives n independent seeds from master.
func Seeds(master uint64, n int) []uint64 {
	s := master
	out := make([]uint64, n)
	for i := range out {
		out[i] = SplitMix64(&s)
	}
	return out
}

// Bin hashes x into a bin index in [1, n] using the seeded xxHash64. This is
// the hash-partitioning primitive h of §2.2.1 (bins are 1-based because bin
// indices double as nonzero GF(2^m) elements).
func Bin(x, seed uint64, n uint64) uint64 {
	return XXH64Uint64(x, seed)%n + 1
}

// Bucket hashes x into a 0-based bucket in [0, n).
func Bucket(x, seed uint64, n uint64) uint64 {
	return XXH64Uint64(x, seed) % n
}

// mersenne61 is the prime 2^61 − 1 used as the modulus of the 4-wise
// independent polynomial hash family.
const mersenne61 = (1 << 61) - 1

// mulmod61 returns a*b mod 2^61−1 using 128-bit intermediate arithmetic.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// Split the 128-bit product into chunks of 61 bits and fold.
	r := lo & mersenne61
	r += (lo >> 61) | (hi << 3 & mersenne61)
	r = (r & mersenne61) + (r >> 61)
	r += hi >> 58
	r = (r & mersenne61) + (r >> 61)
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// FourWise is a member of a 4-wise independent hash family: a random cubic
// polynomial over GF(2^61−1), whose value's low bit is the ±1 hash the
// Tug-of-War estimator requires (§6.1). It is evaluated through a
// FourWiseBank.
type FourWise struct {
	a, b, c, d uint64
}

// NewFourWise draws a family member deterministically from seed.
func NewFourWise(seed uint64) FourWise {
	s := seed
	draw := func() uint64 {
		for {
			v := SplitMix64(&s) & ((1 << 62) - 1)
			if v < mersenne61 {
				return v
			}
		}
	}
	return FourWise{a: draw(), b: draw(), c: draw(), d: draw()}
}

// FourWiseBank is a bank of 4-wise independent hash functions for batched
// evaluation. An element's powers x, x², x³ (mod 2^61−1) are computed once,
// and a single pass over the members evaluates every polynomial with three
// mutually independent multiplies. Each product is below 2^122, so
// a·x³ + b·x² + c·x + d is summed exactly in 128 bits (it stays below
// 2^124) and reduced mod 2^61−1 once per member rather than once per
// product. The residue is the canonical one, so the signs are bit-identical
// to a Horner evaluation of the same polynomial.
type FourWiseBank struct {
	lanes []FourWise
}

// NewFourWiseBank builds a bank whose i-th member is exactly
// NewFourWise(seeds[i]).
func NewFourWiseBank(seeds []uint64) *FourWiseBank {
	bk := &FourWiseBank{lanes: make([]FourWise, len(seeds))}
	for i, s := range seeds {
		bk.lanes[i] = NewFourWise(s)
	}
	return bk
}

// Len returns the number of hash functions in the bank.
func (bk *FourWiseBank) Len() int { return len(bk.lanes) }

// AddSigns adds every member's ±1 sign of x into the matching slot of ys,
// which must have length Len().
func (bk *FourWiseBank) AddSigns(x uint64, ys []int64) { bk.addSigns(x, ys, 1) }

// SubSigns subtracts every member's ±1 sign of x from the matching slot of
// ys. Because the signs are ±1 and the accumulation is plain addition,
// SubSigns(x) exactly cancels a prior AddSigns(x) — the property that makes
// a sign-sum sketch incrementally maintainable under element removal.
func (bk *FourWiseBank) SubSigns(x uint64, ys []int64) { bk.addSigns(x, ys, -1) }

// addSigns adds sign times every member's ±1 sign of x into ys.
func (bk *FourWiseBank) addSigns(x uint64, ys []int64, sign int64) {
	x %= mersenne61
	x2 := mulmod61(x, x)
	x3 := mulmod61(x2, x)
	ys = ys[:len(bk.lanes)] // one length: the loop carries no bounds check
	twice := 2 * sign
	for i, h := range bk.lanes {
		// Every operand is below p = 2^61−1, so each product is below
		// 2^122 and the sum below 2^124: exact in 128 bits.
		hi, lo := bits.Mul64(h.a, x3)
		h2, l := bits.Mul64(h.b, x2)
		lo, carry := bits.Add64(lo, l, 0)
		hi += h2 + carry
		h2, l = bits.Mul64(h.c, x)
		lo, carry = bits.Add64(lo, l, 0)
		hi += h2 + carry
		lo, carry = bits.Add64(lo, h.d, 0)
		hi += carry
		// 2^61 ≡ 1: add the sum's bits above bit 61 (at most 63 of them) to
		// its low 61, then fold the few bits that carry past 2^61.
		r := lo&mersenne61 + (hi<<3 | lo>>61)
		r = r&mersenne61 + r>>61
		if r >= mersenne61 {
			r -= mersenne61
		}
		ys[i] += sign - twice*int64(r&1)
	}
}
