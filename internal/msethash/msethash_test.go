package msethash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrderIndependence(t *testing.T) {
	xs := []uint64{5, 9, 1 << 40, 77, 3}
	a := New(1)
	b := New(1)
	a.AddSet(xs)
	for i := len(xs) - 1; i >= 0; i-- {
		b.Add(xs[i])
	}
	if !a.Equal(b) {
		t.Fatal("multiset hash must be order independent")
	}
}

func TestAddRemoveCancels(t *testing.T) {
	h := New(2)
	h.Add(42)
	h.Add(43)
	h.Remove(42)
	h.Remove(43)
	if !h.Sum().IsZero() {
		t.Fatal("add+remove must restore the empty digest")
	}
}

func TestRemoveBeforeAdd(t *testing.T) {
	// Transiently negative multiplicities must cancel too.
	h := New(3)
	h.Remove(7)
	h.Add(7)
	if !h.Sum().IsZero() {
		t.Fatal("remove-then-add must cancel")
	}
}

func TestMultiplicityMatters(t *testing.T) {
	a := New(4)
	a.Add(9)
	b := New(4)
	b.Add(9)
	b.Add(9)
	if a.Equal(b) {
		t.Fatal("multiset hash must distinguish multiplicities")
	}
}

func TestSeedSeparation(t *testing.T) {
	a := New(1)
	b := New(2)
	a.Add(5)
	b.Add(5)
	if a.Sum() == b.Sum() {
		t.Fatal("different seeds must give different digests")
	}
	if a.Equal(b) {
		t.Fatal("Equal must compare seeds")
	}
}

func TestDigestSerialization(t *testing.T) {
	h := New(6)
	h.AddSet([]uint64{1, 2, 3})
	d := h.Sum()
	b := d.Bytes()
	if len(b) != 32 {
		t.Fatalf("digest bytes = %d", len(b))
	}
	d2, ok := DigestFromBytes(b)
	if !ok || d2 != d {
		t.Fatal("digest roundtrip failed")
	}
	if _, ok := DigestFromBytes(b[:31]); ok {
		t.Fatal("short digest must be rejected")
	}
}

// The PBS verification property: H(A △ D) == H(B) iff D == A△B, with
// overwhelming probability over random sets.
func TestSymmetricDifferenceVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	common := make([]uint64, 500)
	for i := range common {
		common[i] = rng.Uint64() | 1
	}
	onlyA := []uint64{1111, 2222}
	onlyB := []uint64{3333}

	ha := New(9)
	ha.AddSet(common)
	ha.AddSet(onlyA)
	hb := New(9)
	hb.AddSet(common)
	hb.AddSet(onlyB)

	// Apply the true difference to ha: remove A-only, add B-only.
	for _, x := range onlyA {
		ha.Remove(x)
	}
	for _, x := range onlyB {
		ha.Add(x)
	}
	if !ha.Equal(hb) {
		t.Fatal("H(A △ diff) should equal H(B)")
	}
	// A wrong difference must not verify.
	ha.Add(4444)
	if ha.Equal(hb) {
		t.Fatal("extra element should break verification")
	}
}

func TestQuickSumCommutes(t *testing.T) {
	prop := func(xs []uint64, seed uint64) bool {
		a := New(seed)
		b := New(seed)
		for _, x := range xs {
			a.Add(x)
		}
		perm := rand.New(rand.NewSource(int64(seed))).Perm(len(xs))
		for _, i := range perm {
			b.Add(xs[i])
		}
		return a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNoTrivialCollisions(t *testing.T) {
	// {x, y} vs {x+y}: the plain-sum checksum collides when element values
	// add up; the multiset hash must not (that is its whole point, §2.2.3).
	a := New(10)
	a.Add(100)
	a.Add(200)
	b := New(10)
	b.Add(300)
	if a.Equal(b) {
		t.Fatal("multiset hash collided on additive relation")
	}
}

func BenchmarkAdd(b *testing.B) {
	h := New(0)
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i) | 1)
	}
}
