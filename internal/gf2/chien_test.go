package gf2

import (
	"math/rand"
	"slices"
	"testing"
)

// sparsePoly draws a random polynomial of degree <= maxDeg over f with a
// bias toward zero interior coefficients, which Chien must skip correctly.
func sparsePoly(rng *rand.Rand, f *Field, maxDeg int) Poly {
	p := make(Poly, maxDeg+1)
	for i := range p {
		if rng.Intn(4) == 0 {
			continue // keep some coefficients zero
		}
		p[i] = rng.Uint64() & f.Order()
	}
	return p.normalize()
}

func TestChienMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []uint{2, 5, 8, 11, 16} {
		f := MustField(m)
		for trial := 0; trial < 10; trial++ {
			p := sparsePoly(rng, f, 1+rng.Intn(12))
			var ws Chien
			if !ws.Init(f, p) {
				t.Fatalf("m=%d: Init refused a table field", m)
			}
			for i := uint64(0); i < f.Order(); i++ {
				x := f.Exp(i)
				want := p.Eval(f, x)
				if got := ws.Next(); got != want {
					t.Fatalf("m=%d deg=%d: p(α^%d) = %#x, want %#x", m, p.Degree(), i, got, want)
				}
			}
		}
	}
}

func TestChienRejectsTablelessField(t *testing.T) {
	f := MustField(32)
	var ws Chien
	if ws.Init(f, NewPoly(1, 2, 3)) {
		t.Fatal("Init should report false for m=32 (no log tables)")
	}
}

func TestChienWorkspaceReuse(t *testing.T) {
	f := MustField(8)
	rng := rand.New(rand.NewSource(22))
	var ws Chien
	for trial := 0; trial < 20; trial++ {
		p := sparsePoly(rng, f, 1+rng.Intn(8))
		ws.Init(f, p)
		for i := uint64(0); i < 40; i++ {
			if got, want := ws.Next(), p.Eval(f, f.Exp(i)); got != want {
				t.Fatalf("trial %d: reused workspace diverged at i=%d", trial, i)
			}
		}
	}
}

func TestChienSteadyStateAllocs(t *testing.T) {
	f := MustField(11)
	p := NewPoly(1, 7, 0, 1030, 99)
	var ws Chien
	ws.Init(f, p) // warm up the workspace
	allocs := testing.AllocsPerRun(100, func() {
		ws.Init(f, p)
		for i := 0; i < 64; i++ {
			ws.Next()
		}
	})
	if allocs != 0 {
		t.Fatalf("Chien Init+Next allocated %v times per run, want 0", allocs)
	}
}

// TestQuadRootMatchesBruteForce checks the whole y² + y = u solution table
// of every field a PBS plan can reach: each u has a listed root exactly when
// brute force finds one, the root solves the equation, and solvability is
// Tr(u) = 0.
func TestQuadRootMatchesBruteForce(t *testing.T) {
	for m := uint(2); m <= 12; m++ {
		f := MustField(m)
		solvable := make([]bool, f.Order()+1)
		for y := uint64(0); y <= f.Order(); y++ {
			solvable[f.Sqr(y)^y] = true
		}
		for u := uint64(0); u <= f.Order(); u++ {
			y := f.QuadRoot(u)
			switch {
			case u == 0:
				if y != 0 {
					t.Fatalf("m=%d: QuadRoot(0) = %#x, want 0", m, y)
				}
			case solvable[u] != (y != 0) || solvable[u] != (f.Trace(u) == 0):
				t.Fatalf("m=%d u=%#x: QuadRoot %#x, brute force solvable=%t, trace %d", m, u, y, solvable[u], f.Trace(u))
			case y != 0 && f.Sqr(y)^y != u:
				t.Fatalf("m=%d: QuadRoot(%#x) = %#x does not solve y²+y=u", m, u, y)
			}
		}
	}
}

// TestChienZerosMatchesNext holds the bulk scan to the point-at-a-time one:
// every term count from one to nine (one, two and three passes, each with
// and without padding), zero coefficients among them, every max cutoff, and
// a field on either side of chienAccLimit.
func TestChienZerosMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, m := range []uint{2, 5, 8, 11, 15} {
		f := MustField(m)
		for terms := 1; terms <= 9; terms++ {
			for trial := 0; trial < 6; trial++ {
				// A product of linear factors has roots to find; zeroing a
				// coefficient or two keeps some and exercises the skip.
				p := NewPoly(1)
				for len(p) < terms+1 {
					p = PolyMul(f, p, NewPoly(1+rng.Uint64()%f.Order(), 1))
				}
				p = append(Poly(nil), p...)
				for z := 0; z < trial%3 && len(p) > 2; z++ {
					p[1+rng.Intn(len(p)-2)] = 0
				}
				var a, b Chien
				a.Init(f, p)
				var want []uint64
				for i := uint64(0); i < f.Order(); i++ {
					if a.Next() == 0 {
						want = append(want, i)
					}
				}
				for max := 0; max <= len(want)+1; max++ {
					b.Init(f, p)
					got := b.Zeros(nil, max)
					if !slices.Equal(got, want[:min(max, len(want))]) {
						t.Fatalf("m=%d %v max=%d: Zeros = %v, Next found %v", m, p, max, got, want)
					}
				}
			}
		}
	}
}

func TestPolyAddIntoMatchesPolyAdd(t *testing.T) {
	f := MustField(11)
	rng := rand.New(rand.NewSource(23))
	var dst Poly
	for trial := 0; trial < 50; trial++ {
		a := sparsePoly(rng, f, rng.Intn(10))
		b := sparsePoly(rng, f, rng.Intn(10))
		want := PolyAdd(a, b)
		dst = PolyAddInto(a, b, dst)
		if len(dst) != len(want) {
			t.Fatalf("length mismatch: got %v want %v", dst, want)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("coefficient %d: got %v want %v", i, dst, want)
			}
		}
	}
}

func TestPolyMulIntoMatchesPolyMul(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range []uint{8, 11, 32} {
		f := MustField(m)
		var dst Poly
		for trial := 0; trial < 30; trial++ {
			a := sparsePoly(rng, f, rng.Intn(8))
			b := sparsePoly(rng, f, rng.Intn(8))
			want := PolyMul(f, a, b)
			dst = PolyMulInto(f, a, b, dst)
			if len(dst) != len(want) {
				t.Fatalf("m=%d: length mismatch: got %v want %v", m, dst, want)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("m=%d coefficient %d: got %v want %v", m, i, dst, want)
				}
			}
		}
	}
}

func TestPolyIntoSteadyStateAllocs(t *testing.T) {
	f := MustField(11)
	a := NewPoly(3, 0, 9, 1)
	b := NewPoly(5, 2, 1)
	dst := make(Poly, 0, 16)
	sum := make(Poly, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		dst = PolyMulInto(f, a, b, dst)
		sum = PolyAddInto(a, b, sum)
	})
	if allocs != 0 {
		t.Fatalf("in-place poly ops allocated %v times per run, want 0", allocs)
	}
}
