package hashutil

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Hash evaluates the polynomial at x by Horner's rule, reducing after every
// step, and returns the result in [0, 2^61−1): the scalar reference the
// bank's one-reduction lanes are held to.
func (h FourWise) Hash(x uint64) uint64 {
	x %= mersenne61
	r := h.a
	r = mulmod61(r, x) + h.b
	r = (r & mersenne61) + (r >> 61)
	r = mulmod61(r, x) + h.c
	r = (r & mersenne61) + (r >> 61)
	r = mulmod61(r, x) + h.d
	r = (r & mersenne61) + (r >> 61)
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// Sign maps x to +1 or −1 by the low bit of Hash.
func (h FourWise) Sign(x uint64) int64 {
	if h.Hash(x)&1 == 0 {
		return 1
	}
	return -1
}

// TestFourWiseBankMatchesScalar pins the batched evaluation to the scalar
// Horner path bit for bit: identical members must yield identical signs
// for arbitrary inputs, including the x ≥ 2^61−1 wrap cases, and SubSigns
// must cancel AddSigns exactly. The lanes are the estimator's 128 seeded
// ones, lanes with coefficients at the field's extremes (0 and p−1, where
// the 128-bit sum is largest), and, per input, lanes whose value is forced
// next to the fold's wrap: a sum off by 2^64 ≡ 8 (mod p), as a dropped
// carry leaves it, has the right parity unless it crosses p, so only
// values within 8 of 0 or p−1 show it in the sign.
func TestFourWiseBankMatchesScalar(t *testing.T) {
	const top = mersenne61 - 1
	seeded := Seeds(0xFEED, 128)
	var fixed []FourWise
	for _, s := range seeded {
		fixed = append(fixed, NewFourWise(s))
	}
	if bank := NewFourWiseBank(seeded); !slices.Equal(bank.lanes, fixed) {
		t.Fatal("NewFourWiseBank's members differ from NewFourWise's")
	}
	for _, c := range []uint64{0, top} {
		for mask := 0; mask < 16; mask++ {
			co := func(bit int) uint64 { return c * uint64(mask>>bit&1) }
			fixed = append(fixed, FourWise{a: co(0), b: co(1), c: co(2), d: co(3)})
		}
	}
	fixed = append(fixed, FourWise{a: top, b: top, c: top, d: 0}, FourWise{a: 0, b: 0, c: 0, d: top})

	rng := rand.New(rand.NewSource(55))
	inputs := []uint64{0, 1, 2, mersenne61 - 1, mersenne61, mersenne61 + 1, 1<<32 - 1, ^uint64(0)}
	for i := 0; i < 500; i++ {
		inputs = append(inputs, rng.Uint64(), rng.Uint64()>>32)
	}
	bank := &FourWiseBank{lanes: fixed}
	sum := make([]int64, bank.Len())
	for _, x := range inputs {
		bank.AddSigns(x, sum)
		lanes := slices.Clone(fixed)
		for _, h := range []FourWise{{a: top, b: top, c: top}, {a: rng.Uint64() % mersenne61, b: rng.Uint64() % mersenne61, c: rng.Uint64() % mersenne61}} {
			v := h.Hash(x)
			for k := uint64(0); k < 8; k++ {
				for _, want := range []uint64{k, top - k} {
					h.d = addmod61(want, mersenne61-v)
					lanes = append(lanes, h)
				}
			}
		}
		got := make([]int64, len(lanes))
		(&FourWiseBank{lanes: lanes}).AddSigns(x, got)
		for i, h := range lanes {
			if want := h.Sign(x); got[i] != want {
				t.Fatalf("x=%#x lane %d %+v: bank sign %d, scalar sign %d", x, i, h, got[i], want)
			}
		}
		(&FourWiseBank{lanes: lanes}).SubSigns(x, got)
		if i := slices.IndexFunc(got, func(y int64) bool { return y != 0 }); i >= 0 {
			t.Fatalf("x=%#x lane %d: SubSigns left %d after AddSigns", x, i, got[i])
		}
	}
	for _, x := range inputs {
		bank.SubSigns(x, sum)
	}
	if i := slices.IndexFunc(sum, func(y int64) bool { return y != 0 }); i >= 0 {
		t.Fatalf("lane %d: %d after subtracting every input added", i, sum[i])
	}
}

// TestFourWiseBankAccumulates checks that AddSigns adds rather than
// overwrites, the contract the sketch loop relies on.
func TestFourWiseBankAccumulates(t *testing.T) {
	bank := NewFourWiseBank(Seeds(9, 8))
	once := make([]int64, bank.Len())
	bank.AddSigns(12345, once)
	twice := make([]int64, bank.Len())
	bank.AddSigns(12345, twice)
	bank.AddSigns(12345, twice)
	for i := range once {
		if twice[i] != 2*once[i] {
			t.Fatalf("slot %d: %d after two adds, want %d", i, twice[i], 2*once[i])
		}
	}
}

func BenchmarkFourWiseScalar128(b *testing.B) {
	seeds := Seeds(1, 128)
	hs := make([]FourWise, len(seeds))
	for i, s := range seeds {
		hs[i] = NewFourWise(s)
	}
	ys := make([]int64, len(hs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := uint64(i)*0x9E3779B97F4A7C15 + 1
		for j := range hs {
			ys[j] += hs[j].Sign(x)
		}
	}
}

func BenchmarkFourWiseBank128(b *testing.B) {
	bank := NewFourWiseBank(Seeds(1, 128))
	ys := make([]int64, bank.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.AddSigns(uint64(i)*0x9E3779B97F4A7C15+1, ys)
	}
}

// Known-answer tests from the xxHash64 reference implementation.
func TestXXH64KnownAnswers(t *testing.T) {
	cases := []struct {
		data []byte
		seed uint64
		want uint64
	}{
		{nil, 0, 0xEF46DB3751D8E999},
		{nil, 1, 0xD5AFBA1336A3BE4B},
		{[]byte("a"), 0, 0xD24EC4F1A98C6E5B},
		{[]byte("abc"), 0, 0x44BC2CF5AD770999},
		{[]byte("message digest"), 0, 0x066ED728FCEEB3BE},
		{[]byte("abcdefghijklmnopqrstuvwxyz"), 0, 0xCFE1F278FA89835C},
		{[]byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"), 0, 0xAAA46907D3047814},
	}
	for _, c := range cases {
		if got := XXH64(c.data, c.seed); got != c.want {
			t.Errorf("XXH64(%q, %d) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

// The uint64 fast path must agree with the general path on 8-byte inputs.
func TestXXH64Uint64MatchesGeneral(t *testing.T) {
	prop := func(v, seed uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return XXH64Uint64(v, seed) == XXH64(b[:], seed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBinRangeAndUniformity(t *testing.T) {
	const n = 127
	counts := make([]int, n+1)
	const trials = 127 * 400
	for i := 0; i < trials; i++ {
		b := Bin(uint64(i)*2654435761, 42, n)
		if b < 1 || b > n {
			t.Fatalf("Bin out of range: %d", b)
		}
		counts[b]++
	}
	// Chi-squared sanity: each bin expects ~400; flag gross non-uniformity.
	var chi2 float64
	for i := 1; i <= n; i++ {
		d := float64(counts[i] - 400)
		chi2 += d * d / 400
	}
	// 126 degrees of freedom; mean 126, sd ~15.9. Allow a wide margin.
	if chi2 > 250 {
		t.Errorf("bin distribution looks non-uniform: chi2 = %.1f", chi2)
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := Seeds(123, 10)
	b := Seeds(123, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
	c := Seeds(124, 10)
	if a[0] == c[0] {
		t.Fatal("different masters should give different seeds")
	}
}

func TestMulmod61(t *testing.T) {
	// Cross-check against big-number arithmetic via float-safe small cases
	// and structured large cases.
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {mersenne61 - 1, 2}, {mersenne61 - 1, mersenne61 - 1},
		{1 << 60, 1 << 60}, {123456789012345678 % mersenne61, 987654321098765432 % mersenne61},
	}
	for _, c := range cases {
		got := mulmod61(c[0], c[1])
		want := bigMulMod(c[0], c[1])
		if got != want {
			t.Errorf("mulmod61(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		a := rng.Uint64() % mersenne61
		b := rng.Uint64() % mersenne61
		if got, want := mulmod61(a, b), bigMulMod(a, b); got != want {
			t.Fatalf("mulmod61(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// bigMulMod computes a*b mod 2^61-1 via schoolbook 32-bit limbs (slow but
// obviously correct reference).
func bigMulMod(a, b uint64) uint64 {
	var r uint64
	for b > 0 {
		if b&1 == 1 {
			r = addmod61(r, a)
		}
		a = addmod61(a, a)
		b >>= 1
	}
	return r
}

func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

func TestFourWiseSignBalance(t *testing.T) {
	h := NewFourWise(77)
	var sum int64
	const n = 100000
	for i := 0; i < n; i++ {
		s := h.Sign(uint64(i))
		if s != 1 && s != -1 {
			t.Fatalf("Sign returned %d", s)
		}
		sum += s
	}
	// Standard deviation of the sum is sqrt(n) ~ 316; allow 5 sigma.
	if math.Abs(float64(sum)) > 5*math.Sqrt(n) {
		t.Errorf("sign hash unbalanced: sum = %d over %d draws", sum, n)
	}
}

func TestFourWisePairwiseIndependenceEmpirical(t *testing.T) {
	// E[f(x)·f(y)] should be ~0 for x != y across family members.
	var corr int64
	const members = 20000
	for s := uint64(0); s < members; s++ {
		h := NewFourWise(s)
		corr += h.Sign(12345) * h.Sign(67890)
	}
	if math.Abs(float64(corr)) > 5*math.Sqrt(members) {
		t.Errorf("sign hashes of distinct points look correlated: %d", corr)
	}
}

func TestFourWiseDeterministic(t *testing.T) {
	a := NewFourWise(9)
	b := NewFourWise(9)
	for i := uint64(0); i < 100; i++ {
		if a.Hash(i) != b.Hash(i) {
			t.Fatal("FourWise not deterministic")
		}
	}
}

func TestHashInRange(t *testing.T) {
	h := NewFourWise(3)
	for i := uint64(0); i < 10000; i++ {
		if v := h.Hash(i * 2654435761); v >= mersenne61 {
			t.Fatalf("Hash out of field range: %d", v)
		}
	}
}

func BenchmarkXXH64Uint64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= XXH64Uint64(uint64(i), 42)
	}
	benchSink = acc
}

func BenchmarkFourWiseSign(b *testing.B) {
	h := NewFourWise(1)
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += h.Sign(uint64(i))
	}
	benchSink = uint64(acc)
}

var benchSink uint64
