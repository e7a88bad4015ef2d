package bch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pbs/internal/gf2"
	"pbs/internal/wire"
)

func sorted(xs []uint64) []uint64 {
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func equalSets(t *testing.T, got, want []uint64) {
	t.Helper()
	g, w := sorted(got), sorted(want)
	if len(g) != len(w) {
		t.Fatalf("set size mismatch: got %d want %d (%v vs %v)", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("set mismatch at %d: got %v want %v", i, g, w)
		}
	}
}

// distinctElems draws k distinct nonzero elements of GF(2^m).
func distinctElems(rng *rand.Rand, m uint, k int) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, k)
	mask := (uint64(1) << m) - 1
	for len(out) < k {
		x := rng.Uint64() & mask
		if x == 0 || seen[x] {
			continue
		}
		seen[x] = true
		out = append(out, x)
	}
	return out
}

func TestDecodeSmallFields(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []uint{6, 7, 8, 11} {
		for _, k := range []int{0, 1, 2, 5, 13} {
			t.Run("", func(t *testing.T) {
				s := MustNew(m, 13)
				elems := distinctElems(rng, m, k)
				s.AddSet(elems)
				got, err := s.Decode()
				if err != nil {
					t.Fatalf("m=%d k=%d: %v", m, k, err)
				}
				equalSets(t, got, elems)
			})
		}
	}
}

func TestDecodeGF32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{0, 1, 3, 10, 20} {
		s := MustNew(32, 20)
		elems := distinctElems(rng, 32, k)
		s.AddSet(elems)
		got, err := s.Decode()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		equalSets(t, got, elems)
	}
}

func TestXorGivesSymmetricDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := uint(11)
	common := distinctElems(rng, m, 40)
	onlyA := []uint64{5, 9, 1000}
	onlyB := []uint64{6, 77}
	// Ensure disjointness of the hand-picked extras from common.
	inCommon := map[uint64]bool{}
	for _, c := range common {
		inCommon[c] = true
	}
	for _, x := range append(append([]uint64{}, onlyA...), onlyB...) {
		if inCommon[x] {
			t.Skip("unlucky seed produced overlap; adjust seed")
		}
	}
	sa := MustNew(m, 8)
	sb := MustNew(m, 8)
	sa.AddSet(common)
	sa.AddSet(onlyA)
	sb.AddSet(common)
	sb.AddSet(onlyB)
	if err := sa.Xor(sb); err != nil {
		t.Fatal(err)
	}
	got, err := sa.Decode()
	if err != nil {
		t.Fatal(err)
	}
	equalSets(t, got, append(append([]uint64{}, onlyA...), onlyB...))
}

func TestOverCapacityFails(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	failures := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		s := MustNew(11, 5)
		s.AddSet(distinctElems(rng, 11, 9)) // 9 > t = 5
		if _, err := s.Decode(); err != nil {
			failures++
		}
	}
	// Detection should be overwhelming; allow at most one fluke.
	if failures < trials-1 {
		t.Fatalf("over-capacity decode reported success too often: %d/%d failures", failures, trials)
	}
}

func TestOverCapacityFailsGF32(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		s := MustNew(32, 4)
		s.AddSet(distinctElems(rng, 32, 7))
		if _, err := s.Decode(); err == nil {
			// A false success must at least not corrupt anything; but with
			// the syndrome recheck it should essentially never happen.
			t.Fatal("expected decode failure for 7 elements with t=4")
		}
	}
}

func TestAddTwiceCancels(t *testing.T) {
	s := MustNew(8, 4)
	s.Add(42)
	s.Add(42)
	if !s.Empty() {
		t.Fatal("adding an element twice should cancel")
	}
	got, err := s.Decode()
	if err != nil || len(got) != 0 {
		t.Fatalf("decode of empty sketch: %v, %v", got, err)
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := MustNew(11, 7)
	elems := distinctElems(rng, 11, 6)
	s.AddSet(elems)

	w := wire.NewWriter()
	s.AppendTo(w)
	if w.Len() != s.Bits() || s.Bits() != 7*11 {
		t.Fatalf("serialized bits = %d, want %d", w.Len(), s.Bits())
	}
	r := wire.NewReader(w.Bytes())
	s2, err := ReadFrom(r, 11, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Decode()
	if err != nil {
		t.Fatal(err)
	}
	equalSets(t, got, elems)
}

func TestInvalidParams(t *testing.T) {
	if _, err := New(1, 3); err == nil {
		t.Error("m=1 should fail")
	}
	if _, err := New(8, 0); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := New(3, 100); err == nil {
		t.Error("t too large for field should fail")
	}
}

func TestAddValidation(t *testing.T) {
	s := MustNew(8, 3)
	for _, bad := range []uint64{0, 256, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%#x) should panic", bad)
				}
			}()
			s.Add(bad)
		}()
	}
	// AddBitmap checks the bitmap's shape once: its length, bin 0, and —
	// where n + 1 does not fill the last word — the bits above bin n.
	small := MustNew(5, 3)
	for name, bad := range map[string]func(){
		"short":        func() { s.AddBitmap(make([]uint64, 3)) },
		"long":         func() { s.AddBitmap(make([]uint64, 5)) },
		"bin 0":        func() { s.AddBitmap([]uint64{1, 0, 0, 0}) },
		"bin 0, small": func() { small.AddBitmap([]uint64{1}) },
		"above n":      func() { small.AddBitmap([]uint64{1 << 32}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddBitmap with %s should panic", name)
				}
			}()
			bad()
		}()
	}
	if !s.Empty() || !small.Empty() {
		t.Error("a rejected bitmap must leave the sketch untouched")
	}
	s.AddBitmap([]uint64{0, 0, 0, 1 << 63}) // bin n itself is an element
	small.AddBitmap([]uint64{1 << 31})
	s.Add(255)
	small.Add(31)
	if !s.Empty() || !small.Empty() {
		t.Error("AddBitmap of the top bin differs from Add of it")
	}
}

func TestXorShapeMismatch(t *testing.T) {
	a := MustNew(8, 3)
	b := MustNew(8, 4)
	if err := a.Xor(b); err == nil {
		t.Error("t mismatch should error")
	}
	c := MustNew(9, 3)
	if err := a.Xor(c); err == nil {
		t.Error("m mismatch should error")
	}
}

// Property-based: for random small sets within capacity, decode inverts
// encode (GF(2^11), the PBS workhorse field).
func TestQuickDecodeInvertsEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := r.Intn(14)
		elems := distinctElems(r, 11, k)
		s := MustNew(11, 13)
		s.AddSet(elems)
		got, err := s.Decode()
		if err != nil {
			return false
		}
		g, w := sorted(got), sorted(elems)
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if g[i] != w[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCapacityBoundaryExact(t *testing.T) {
	// Exactly t elements must decode, for several t.
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []int{1, 2, 8, 17} {
		s := MustNew(11, tc)
		elems := distinctElems(rng, 11, tc)
		s.AddSet(elems)
		got, err := s.Decode()
		if err != nil {
			t.Fatalf("t=%d full capacity: %v", tc, err)
		}
		equalSets(t, got, elems)
	}
}

func BenchmarkAddGF11T13(b *testing.B) {
	s := MustNew(11, 13)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i%2046) + 1)
	}
}

func BenchmarkDecodeGF11T13D5(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	elems := distinctElems(rng, 11, 5)
	s := MustNew(11, 13)
	s.AddSet(elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Clone().Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeGF32T20(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	elems := distinctElems(rng, 32, 14)
	s := MustNew(32, 20)
	s.AddSet(elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Clone().Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddTableMatchesMultiplyPath checks the table-driven Add against the
// multiply path for every tabled field, every capacity t ∈ [1, n/2] and
// every element: the syndromes after adding x to an empty sketch must be
// x, x³, …, x^(2t−1) as the multiply path computes them.
func TestAddTableMatchesMultiplyPath(t *testing.T) {
	for m := uint(2); m <= powTableMaxM; m++ {
		f := gf2.MustField(m)
		n := f.Order()
		tMax := int(n / 2)
		// Syndrome k does not depend on the capacity, so one multiply-path
		// run at the largest capacity is the oracle for all of them.
		want := make([][]uint64, n+1)
		for x := uint64(1); x <= n; x++ {
			want[x] = make([]uint64, tMax)
			referenceAdd(f, x, want[x])
		}
		for cap := 1; cap <= tMax; cap++ {
			s := MustNew(m, cap)
			if s.pow == nil {
				t.Fatalf("m=%d t=%d: no power table", m, cap)
			}
			for x := uint64(1); x <= n; x++ {
				s.Reset()
				s.Add(x)
				if !slices.Equal(s.odd, want[x][:cap]) {
					t.Fatalf("m=%d t=%d: Add(%d) syndromes diverge from the multiply path", m, cap, x)
				}
			}
		}
	}
	if s := MustNew(powTableMaxM+1, 4); s.pow != nil {
		t.Fatalf("m=%d is above the table bound but got a table", powTableMaxM+1)
	}
}

// bitmapOf returns the parity bitmap of set over bins [0, n]: bin b is bit
// b&63 of word b>>6, and an element listed twice cancels.
func bitmapOf(n uint64, set []uint64) []uint64 {
	parity := make([]uint64, n>>6+1)
	for _, x := range set {
		parity[x>>6] ^= 1 << (x & 63)
	}
	return parity
}

// TestAddBitmapMatchesReference holds AddBitmap, and AddSet which goes
// through it, to the preserved multiply path for every field PBS can plan
// plus the first untabled one, capacities on both sides of every row width,
// empty, full and random bitmaps, into an empty sketch and into one that
// already holds a codeword.
func TestAddBitmapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for m := uint(2); m <= 11; m++ {
		f := gf2.MustField(m)
		n := f.Order()
		full := make([]uint64, n)
		for i := range full {
			full[i] = uint64(i + 1)
		}
		sets := [][]uint64{nil, full, {1}, {n}}
		for trial := 0; trial < 6; trial++ {
			sets = append(sets, distinctElems(rng, m, 1+rng.Intn(int(n))))
		}
		for _, tcap := range []int{1, 2, 3, 4, 5, 8, 12, 13, 16, 17, int(n / 2)} {
			if uint64(tcap) > n/2 {
				continue
			}
			for i, set := range sets {
				prior := sets[(i+3)%len(sets)]
				want := make([]uint64, tcap)
				for _, x := range set {
					referenceAdd(f, x, want)
				}
				s := MustNew(m, tcap)
				s.AddBitmap(bitmapOf(n, set))
				if !slices.Equal(s.odd, want) {
					t.Fatalf("m=%d t=%d set %d: AddBitmap into an empty sketch diverges from the multiply path", m, tcap, i)
				}
				for _, x := range prior {
					referenceAdd(f, x, want)
				}
				s.AddBitmap(bitmapOf(n, prior))
				if !slices.Equal(s.odd, want) {
					t.Fatalf("m=%d t=%d set %d: AddBitmap into a held codeword diverges from the multiply path", m, tcap, i)
				}
				s.AddSet(append(set, prior...)) // cancels both
				if !s.Empty() {
					t.Fatalf("m=%d t=%d set %d: AddSet does not cancel AddBitmap", m, tcap, i)
				}
			}
		}
	}
}

// TestPowTableBytesPerSlot pins the memory argument behind powTableMaxM: a
// packed table holds 2 bytes per entry, as the []uint16 it replaces did, a
// row being the capacity rounded up to a power of two and to a whole word.
func TestPowTableBytesPerSlot(t *testing.T) {
	for m := uint(2); m <= powTableMaxM; m++ {
		f := gf2.MustField(m)
		for tcap := 1; uint64(tcap) <= f.Order()/2; tcap++ {
			stride := 4
			for stride < tcap {
				stride *= 2
			}
			tab := powTableFor(f, tcap)
			if got, want := 8*len(tab.rows), 2*stride*int(f.Order()+1); got != want {
				t.Fatalf("m=%d t=%d: table is %d bytes, want %d (stride %d at 2 bytes an entry)", m, tcap, got, want, stride)
			}
			if tab != powTableFor(f, stride) {
				t.Fatalf("m=%d: t=%d and t=%d do not share a table", m, tcap, stride)
			}
		}
	}
}

// TestAddBitmapZeroAllocs: the accumulators live on the stack.
func TestAddBitmapZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range []struct {
		m uint
		t int
	}{{6, 8}, {8, 12}, {5, 3}, {9, 20}, {11, 13}} {
		s := MustNew(shape.m, shape.t)
		n := s.f.Order()
		set := distinctElems(rng, shape.m, int(n/3))
		parity := bitmapOf(n, set)
		if allocs := testing.AllocsPerRun(20, func() { s.AddBitmap(parity); s.AddSet(set) }); allocs != 0 {
			t.Errorf("m=%d t=%d: AddBitmap + AddSet allocated %v times per run, want 0", shape.m, shape.t, allocs)
		}
	}
}
