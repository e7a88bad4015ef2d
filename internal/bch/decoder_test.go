package bch

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pbs/internal/gf2"
)

// TestDecodeIntoMatchesDecode runs randomized sketches — within capacity,
// at capacity, and over capacity — through a single reused (and therefore
// dirty) workspace and requires exact agreement with fresh Decode calls.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ws := NewDecoder()
	var dst []uint64
	for trial := 0; trial < 300; trial++ {
		m := []uint{6, 8, 11, 13}[rng.Intn(4)]
		tcap := 1 + rng.Intn(16)
		k := rng.Intn(tcap + 6) // sometimes over capacity
		s := MustNew(m, tcap)
		elems := distinctElems(rng, m, min(k, 1<<m-1))
		s.AddSet(elems)

		want, wantErr := s.Decode()
		dst = dst[:0]
		got, gotErr := s.DecodeInto(ws, dst)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d (m=%d t=%d k=%d): Decode err=%v, DecodeInto err=%v",
				trial, m, tcap, k, wantErr, gotErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrDecodeFailure) {
				t.Fatalf("trial %d: unexpected error %v", trial, gotErr)
			}
			if len(got) != 0 {
				t.Fatalf("trial %d: dst modified on failure: %v", trial, got)
			}
			continue
		}
		equalSets(t, got, want)
	}
}

// TestDecodeIntoDirtyWorkspace interleaves shapes and failures: a workspace
// that just decoded a large sketch (or just failed) must decode a small
// one correctly, and vice versa.
func TestDecodeIntoDirtyWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ws := NewDecoder()

	big := MustNew(13, 30)
	bigElems := distinctElems(rng, 13, 30)
	big.AddSet(bigElems)

	small := MustNew(8, 3)
	smallElems := distinctElems(rng, 8, 2)
	small.AddSet(smallElems)

	over := MustNew(11, 4)
	over.AddSet(distinctElems(rng, 11, 9))

	for round := 0; round < 10; round++ {
		got, err := big.DecodeInto(ws, nil)
		if err != nil {
			t.Fatalf("round %d big: %v", round, err)
		}
		equalSets(t, got, bigElems)

		if _, err := over.DecodeInto(ws, nil); err == nil {
			t.Fatalf("round %d: over-capacity decode succeeded", round)
		}

		got, err = small.DecodeInto(ws, nil)
		if err != nil {
			t.Fatalf("round %d small after failure: %v", round, err)
		}
		equalSets(t, got, smallElems)
	}
}

// TestDecodeIntoAppends verifies the dst contract: recovered elements are
// appended in ascending order and dst is untouched on failure.
func TestDecodeIntoAppends(t *testing.T) {
	s := MustNew(8, 4)
	s.Add(7)
	s.Add(9)
	ws := NewDecoder()
	dst := []uint64{99}
	dst, err := s.DecodeInto(ws, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 3 || dst[0] != 99 || dst[1] != 7 || dst[2] != 9 {
		t.Fatalf("append contract violated: %v", dst)
	}

	rng := rand.New(rand.NewSource(33))
	over := MustNew(8, 2)
	over.AddSet(distinctElems(rng, 8, 6))
	before := append([]uint64(nil), dst...)
	got, err := over.DecodeInto(ws, dst)
	if err == nil {
		t.Skip("unlucky seed: over-capacity sketch decoded") // recheck makes this ~impossible
	}
	equalSets(t, got, before)
}

// TestDecodeIntoZeroAllocs is the steady-state allocation contract: repeated
// decodes through a warmed-up workspace must not touch the heap (table
// fields) — across mixed degrees at the untabled-power shape, and on each
// exit by itself at a tabled one: the singleton, the closed-form quadratic,
// one Chien pass, two, and the quadratic that has no roots.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const tcap = 13
	mixed := make([]*Sketch, 8)
	for i := range mixed {
		mixed[i] = MustNew(11, tcap)
		mixed[i].AddSet(distinctElems(rng, 11, 1+rng.Intn(tcap)))
	}
	cases := map[string][]*Sketch{"mixed degrees, m=11": mixed}
	for _, k := range []int{1, 2, 3, 4, 5, 8, 12} {
		s := MustNew(8, 12)
		s.AddSet(distinctElems(rng, 8, k))
		cases[fmt.Sprintf("m=8 degree %d", k)] = []*Sketch{s}
	}
	rootless := MustNew(8, 12) // Λ = 1 + x + c₂x² with Tr(c₂) = 1
	rootless.odd[0], rootless.odd[1] = 1, 1^noRootC2(t, rootless.f)
	if _, err := rootless.Decode(); err == nil {
		t.Fatal("a quadratic locator without roots decoded")
	}
	cases["m=8 rootless quadratic"] = []*Sketch{rootless}
	ws := NewDecoder()
	dst := make([]uint64, 0, tcap)
	for name, sketches := range cases {
		run := func() {
			for _, s := range sketches {
				var err error
				if dst, err = s.DecodeInto(ws, dst[:0]); err != nil && s != rootless {
					t.Fatal(err)
				}
			}
		}
		run() // warm up the buffers
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: steady-state DecodeInto allocated %v times per run, want 0", name, allocs)
		}
	}
}

// noRootC2 returns a c with Tr(c) = 1, so that 1 + x + c·x² has no root: the
// locator of the syndromes σ₁ = 1, σ₃ = 1 + c.
func noRootC2(t *testing.T, f *gf2.Field) uint64 {
	for c := uint64(1); c <= f.Order(); c++ {
		if f.Trace(c) == 1 {
			return c
		}
	}
	t.Fatal("no element of trace 1")
	return 0
}

// TestDecodeIntoConcurrent exercises per-goroutine workspaces decoding
// shared sketches under the race detector.
func TestDecodeIntoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sketches := make([]*Sketch, 16)
	wants := make([][]uint64, len(sketches))
	for i := range sketches {
		sketches[i] = MustNew(11, 13)
		wants[i] = distinctElems(rng, 11, 1+rng.Intn(13))
		sketches[i].AddSet(wants[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewDecoder()
			var dst []uint64
			for rep := 0; rep < 20; rep++ {
				for i, s := range sketches {
					var err error
					dst, err = s.DecodeInto(ws, dst[:0])
					if err != nil {
						t.Errorf("sketch %d: %v", i, err)
						return
					}
					if len(dst) != len(wants[i]) {
						t.Errorf("sketch %d: got %d elems, want %d", i, len(dst), len(wants[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeIntoMatchesReference differentially tests the kernel against the
// preserved pre-workspace one through one dirty Decoder: every field from
// GF(4) to GF(2^12) and GF(2^32), every set size from empty to five past
// capacity, and syndromes that are no set's at all — which is where
// Berlekamp–Massey's skipped steps and every failure exit have to agree.
func TestDecodeIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ws := NewDecoder()
	check := func(s *Sketch, what string) {
		t.Helper()
		want, wantErr := referenceDecode(s)
		got, gotErr := s.DecodeInto(ws, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: reference err=%v, DecodeInto err=%v", what, wantErr, gotErr)
		}
		if gotErr == nil {
			equalSets(t, got, want)
		} else if !errors.Is(gotErr, ErrDecodeFailure) {
			t.Fatalf("%s: unexpected error %v", what, gotErr)
		}
	}
	for _, m := range []uint{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 32} {
		n := uint64(1)<<m - 1
		for trial := 0; trial < 12; trial++ {
			tcap := 1 + rng.Intn(int(min(16, n/2)))
			for k := 0; k <= tcap+5 && uint64(k) <= n; k++ {
				s := MustNew(m, tcap)
				s.AddSet(distinctElems(rng, m, k))
				check(s, fmt.Sprintf("m=%d t=%d k=%d", m, tcap, k))
			}
			s := MustNew(m, tcap)
			for i := range s.odd {
				if rng.Intn(4) != 0 {
					s.odd[i] = rng.Uint64() & n
				}
			}
			check(s, fmt.Sprintf("m=%d t=%d random syndromes %v", m, tcap, s.odd))
		}
	}
}

// TestDecodeEveryPair decodes the sketch of every unordered pair {x, y} of
// every field up to GF(2^8): the closed-form quadratic, exhaustively, at the
// smallest capacity that holds a pair and at a roomy one.
func TestDecodeEveryPair(t *testing.T) {
	ws := NewDecoder()
	var dst []uint64
	for m := uint(3); m <= 8; m++ {
		n := uint64(1)<<m - 1
		for _, tcap := range []int{2, int(min(12, n/2))} {
			s := MustNew(m, tcap)
			for x := uint64(1); x < n; x++ {
				for y := x + 1; y <= n; y++ {
					s.Reset()
					s.Add(x)
					s.Add(y)
					var err error
					if dst, err = s.DecodeInto(ws, dst[:0]); err != nil || len(dst) != 2 || dst[0] != x || dst[1] != y {
						t.Fatalf("m=%d t=%d: {%d, %d} decoded to %v, %v", m, tcap, x, y, dst, err)
					}
				}
			}
		}
	}
}

// kernelCase builds the PBS steady-state decode workload for difference
// cardinality d: g = d/δ sketches over GF(2^11) with capacity t = 13 and
// ~δ = 5 set elements each — the per-round kernel the paper's headline
// decode-cost claim is about.
func kernelCase(tb testing.TB, d int) []*Sketch {
	tb.Helper()
	const m, tcap, delta = uint(11), 13, 5
	rng := rand.New(rand.NewSource(int64(d)))
	groups := d / delta
	if groups < 1 {
		groups = 1
	}
	sketches := make([]*Sketch, groups)
	for i := range sketches {
		sketches[i] = MustNew(m, tcap)
		k := 1 + rng.Intn(2*delta-1) // 1..9 differing positions, mean ~5
		sketches[i].AddSet(distinctElems(rng, m, k))
	}
	return sketches
}

// BenchmarkDecodeKernel measures the steady-state PBS decode hot path with
// a reused workspace at d ∈ {100, 1k, 10k}. Compare against
// BenchmarkDecodeKernelReference (the pre-workspace kernel) for the
// speedup, and -benchmem for the zero-allocation claim.
func BenchmarkDecodeKernel(b *testing.B) {
	for _, d := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			sketches := kernelCase(b, d)
			ws := NewDecoder()
			dst := make([]uint64, 0, 16)
			var err error
			// Warm up the workspace so the loop measures steady state.
			for _, s := range sketches {
				if dst, err = s.DecodeInto(ws, dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sketches {
					if dst, err = s.DecodeInto(ws, dst[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecodeByDegree pins the decode cost per locator degree at the two
// shapes the bulk and the small plans use: one warm Decoder over 64 sketches
// of exactly deg elements each, so no branch predictor learns a single input.
// Degree 1 is the singleton exit, 2 the closed-form quadratic, 3–4 one fused
// Chien pass, 5–8 two.
func BenchmarkDecodeByDegree(b *testing.B) {
	for _, shape := range []struct {
		m uint
		t int
	}{{6, 10}, {8, 12}} {
		for deg := 1; deg <= 8; deg++ {
			b.Run(fmt.Sprintf("m=%d/t=%d/deg=%d", shape.m, shape.t, deg), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(deg)))
				sketches := make([]*Sketch, 64)
				for i := range sketches {
					sketches[i] = MustNew(shape.m, shape.t)
					sketches[i].AddSet(distinctElems(rng, shape.m, deg))
				}
				ws := NewDecoder()
				dst := make([]uint64, 0, shape.t)
				b.ReportAllocs()
				// The first pass warms the workspace up; the timer starts after.
				for i := -len(sketches); i < b.N; i++ {
					if i == 0 {
						b.ResetTimer()
					}
					var err error
					if dst, err = sketches[i&63].DecodeInto(ws, dst[:0]); err != nil || len(dst) != deg {
						b.Fatalf("decoded %d of %d elements: %v", len(dst), deg, err)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeKernelReference is the identical workload through the
// pre-PR kernel preserved in reference_test.go.
func BenchmarkDecodeKernelReference(b *testing.B) {
	for _, d := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			sketches := kernelCase(b, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sketches {
					if _, err := referenceDecode(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
