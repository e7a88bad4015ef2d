package bch

import (
	"math/rand"
	"testing"
)

// FuzzBCHRoundTrip encodes two random sets, XORs their sketches, decodes
// the symmetric difference, and cross-checks three properties:
//
//  1. within capacity, the decode must recover exactly A△B;
//  2. DecodeInto through a reused (dirty) workspace must agree with a
//     fresh Decode call on both the result and the error;
//  3. over capacity, a decode must either fail or — in the
//     astronomically unlikely miscorrection case — still agree between
//     the two code paths.
func FuzzBCHRoundTrip(f *testing.F) {
	f.Add(uint64(42), uint64(11), uint64(13), uint64(5), uint64(7))
	f.Add(uint64(1), uint64(6), uint64(3), uint64(0), uint64(0))
	f.Add(uint64(99), uint64(8), uint64(4), uint64(9), uint64(9))
	f.Add(uint64(7), uint64(13), uint64(2), uint64(40), uint64(1))
	f.Add(uint64(123456), uint64(16), uint64(8), uint64(20), uint64(15))

	ws := NewDecoder() // deliberately shared across fuzz cases: must stay clean
	f.Fuzz(func(t *testing.T, seed, mRaw, tRaw, naRaw, nbRaw uint64) {
		sa, trueDiff := fuzzCase(t, seed, mRaw, tRaw, naRaw, nbRaw)
		fresh, freshErr := sa.Decode()
		reused, reusedErr := sa.DecodeInto(ws, nil)
		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("Decode err=%v but DecodeInto err=%v", freshErr, reusedErr)
		}
		if freshErr == nil {
			equalSets(t, reused, fresh)
		}
		if len(trueDiff) <= sa.t {
			if freshErr != nil {
				t.Fatalf("within-capacity decode failed: |diff|=%d t=%d m=%d: %v",
					len(trueDiff), sa.t, sa.M(), freshErr)
			}
			equalSets(t, fresh, trueDiff)
		}
	})
}

// fuzzCase draws the two sets a fuzz input stands for and returns the sketch
// of their difference with the difference itself.
func fuzzCase(t *testing.T, seed, mRaw, tRaw, naRaw, nbRaw uint64) (*Sketch, []uint64) {
	m := uint(2 + mRaw%15) // 2..16: the table-field hot path
	tcap := int(1 + tRaw%20)
	if uint64(tcap) > (uint64(1)<<m-1)/2 {
		tcap = int((uint64(1)<<m - 1) / 2)
	}
	universe := uint64(1)<<m - 1
	na := naRaw % 64
	nb := nbRaw % 64
	if na > universe {
		na = universe
	}
	if nb > universe {
		nb = universe
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	// Draw both sets from a shared pool so they overlap often.
	pool := distinctElems(rng, m, int(min(universe, na+nb)))
	setA := map[uint64]struct{}{}
	setB := map[uint64]struct{}{}
	for i := uint64(0); len(pool) > 0 && i < na; i++ {
		setA[pool[rng.Intn(len(pool))]] = struct{}{}
	}
	for i := uint64(0); len(pool) > 0 && i < nb; i++ {
		setB[pool[rng.Intn(len(pool))]] = struct{}{}
	}

	sa := MustNew(m, tcap)
	sb := MustNew(m, tcap)
	var trueDiff []uint64
	for x := range setA {
		sa.Add(x)
		if _, in := setB[x]; !in {
			trueDiff = append(trueDiff, x)
		}
	}
	for x := range setB {
		sb.Add(x)
		if _, in := setA[x]; !in {
			trueDiff = append(trueDiff, x)
		}
	}
	if err := sa.Xor(sb); err != nil {
		t.Fatal(err)
	}
	return sa, trueDiff
}

// TestFuzzSeedsReachExits keeps the corpus seeds named after a decoder exit
// on that exit: the singleton test, and a quadratic locator without roots
// (over capacity, Tr(u) = 1). The third guard of the closed form, c₁ = 0,
// has no seed because no syndromes reach it: c₁ is σ₁ once Berlekamp–Massey
// has taken its first step, and σ₁ = 0 leaves a locator of degree 0 or ≥ 3;
// TestSolveQuadraticRejects covers it directly.
func TestFuzzSeedsReachExits(t *testing.T) {
	single, diff := fuzzCase(t, 5, 6, 7, 1, 0) // seed-singleton
	if len(diff) != 1 || !single.equalsPacked(single.pow.row(diff[0])) {
		t.Errorf("seed-singleton: difference %v is not one tabled element", diff)
	}
	s, diff := fuzzCase(t, 3, 6, 1, 9, 9) // seed-quadratic-no-root
	syn := []uint64{s.odd[0], s.f.Sqr(s.odd[0]), s.odd[1], s.f.Sqr(s.f.Sqr(s.odd[0]))}
	loc := NewDecoder().berlekampMassey(s.f, syn)
	if len(diff) <= s.t || len(loc) != 3 || loc[1] == 0 {
		t.Fatalf("seed-quadratic-no-root: |diff|=%d t=%d locator %v, want an over-capacity quadratic", len(diff), s.t, loc)
	}
	if _, _, ok := solveQuadratic(s.f, loc[0], loc[1], loc[2]); ok {
		t.Errorf("seed-quadratic-no-root: locator %v has roots", loc)
	}
	if _, err := s.Decode(); err == nil {
		t.Error("seed-quadratic-no-root decoded")
	}
}

func TestSolveQuadraticRejects(t *testing.T) {
	f := MustNew(8, 2).f
	if _, _, ok := solveQuadratic(f, 1, 0, 7); ok {
		t.Error("c₁ = 0 is a double root, not a pair")
	}
	if _, _, ok := solveQuadratic(f, 1, 1, noRootC2(t, f)); ok {
		t.Error("Tr(c₀c₂/c₁²) = 1 has no roots")
	}
	if e1, e2, ok := solveQuadratic(f, 1, 3^5, f.Mul(3, 5)); !ok || e1^e2 != 3^5 || f.Mul(e1, e2) != f.Mul(3, 5) {
		t.Errorf("(1 + 3x)(1 + 5x) solved to %d, %d, %t", e1, e2, ok)
	}
}
