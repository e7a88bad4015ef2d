// Package msethash implements an incremental multiset hash in the style of
// MSet-Add-Hash (Clarke et al., ASIACRYPT 2003), the stronger verification
// option §2.2.3 of the PBS paper suggests for mission-critical deployments:
// instead of the plain-sum checksum, Alice and Bob compare H(A△D̂) with
// H(B), where H hashes each element through a one-way function before
// accumulating.
//
// The accumulator is addition of per-element 256-bit digests modulo 2^256.
// Toggling an element in and out cancels exactly, so the hash supports the
// same incremental maintenance as PBS's plain checksum while making
// engineered collisions as hard as finding additive relations among
// one-way-function outputs.
//
// The per-element one-way function is SHA-256-like in structure but
// implemented here from scratch over the stdlib (crypto/sha256 would also
// do; we avoid importing crypto to keep the module's footprint explicit and
// the function seedable).
package msethash

import (
	"encoding/binary"
	"math/bits"

	"pbs/internal/hashutil"
)

// Digest is a 256-bit accumulator: four little-endian 64-bit limbs.
type Digest [4]uint64

// Hash accumulates a multiset of uint64 elements under a seed. Both parties
// must use the same seed. The zero Hash is an empty multiset.
type Hash struct {
	seed uint64
	acc  Digest
}

// New returns an empty multiset hash under seed.
func New(seed uint64) *Hash { return &Hash{seed: seed} }

// FromDigest returns a Hash whose accumulator resumes from a previously
// computed digest — the incremental continuation a cached whole-set digest
// enables: H(A △ D) is derived from the stored H(A) by toggling only the
// elements of D instead of re-hashing all of A.
func FromDigest(seed uint64, d Digest) *Hash { return &Hash{seed: seed, acc: d} }

// elementDigest expands x into a 256-bit pseudorandom value using four
// domain-separated xxHash64 invocations whitened through SplitMix64. This
// is the "one-way hash applied to each element first" of §2.2.3 footnote 1.
func (h *Hash) elementDigest(x uint64) Digest {
	var d Digest
	for i := range d {
		s := hashutil.XXH64Uint64(x, h.seed+uint64(i)*0x9E3779B97F4A7C15+1)
		// One extra mixing round decorrelates the limbs further.
		d[i] = hashutil.SplitMix64(&s)
	}
	return d
}

// Add accumulates one occurrence of x.
func (h *Hash) Add(x uint64) {
	d := h.elementDigest(x)
	var carry uint64
	for i := range h.acc {
		h.acc[i], carry = add64(h.acc[i], d[i], carry)
	}
}

// Remove cancels one occurrence of x (x need not be present; multiset
// counts may go transiently negative mod 2^256).
func (h *Hash) Remove(x uint64) {
	d := h.elementDigest(x)
	var borrow uint64
	for i := range h.acc {
		h.acc[i], borrow = sub64(h.acc[i], d[i], borrow)
	}
}

// AddSet accumulates every element of set.
func (h *Hash) AddSet(set []uint64) {
	for _, x := range set {
		h.Add(x)
	}
}

// Sum returns the current 256-bit digest.
func (h *Hash) Sum() Digest { return h.acc }

// Equal reports whether two hashes (under the same seed) agree.
func (h *Hash) Equal(other *Hash) bool {
	return h.seed == other.seed && h.acc == other.acc
}

// Bytes serializes the digest (32 bytes, little-endian limbs).
func (d Digest) Bytes() []byte {
	out := make([]byte, 32)
	for i, limb := range d {
		binary.LittleEndian.PutUint64(out[i*8:], limb)
	}
	return out
}

// DigestFromBytes parses a 32-byte digest.
func DigestFromBytes(b []byte) (Digest, bool) {
	if len(b) != 32 {
		return Digest{}, false
	}
	var d Digest
	for i := range d {
		d[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return d, true
}

// IsZero reports whether the digest is the empty-multiset digest.
func (d Digest) IsZero() bool { return d == Digest{} }

func add64(a, b, carryIn uint64) (sum, carryOut uint64) {
	sum, c := bits.Add64(a, b, carryIn)
	return sum, c
}

func sub64(a, b, borrowIn uint64) (diff, borrowOut uint64) {
	diff, bo := bits.Sub64(a, b, borrowIn)
	return diff, bo
}
