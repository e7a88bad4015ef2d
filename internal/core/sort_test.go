package core

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestSortElems(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	for _, width := range []uint{8, 31, 32, 47, 64} {
		for _, n := range []int{0, 1, 7, 1023, 1024, 4097, 60000} {
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = rng.Uint64() >> (64 - width)
			}
			want := slices.Clone(xs)
			slices.Sort(want)
			sortElems(xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("width=%d n=%d: not sorted as slices.Sort sorts", width, n)
			}
		}
	}
}
