package core

import "slices"

// sortElems sorts xs ascending. A set handed over in arbitrary order (a map
// walk, a caller's slice) is sorted exactly once, on the way in, and at set
// sizes worth reconciling that one sort is most of the construction cost:
// an LSD radix sort, 11 bits a pass and skipping the passes on which every
// key agrees (elements of a 32-bit universe take three), runs in about a
// fifth of the comparison sort's time. Small inputs use the latter.
func sortElems(xs []uint64) {
	if len(xs) < 1024 {
		slices.Sort(xs)
		return
	}
	var or, and uint64 = 0, ^uint64(0)
	for _, x := range xs {
		or |= x
		and &= x
	}
	differ := or ^ and // bit positions on which some keys differ
	const bits, mask = 11, 1<<11 - 1
	src, dst := xs, make([]uint64, len(xs))
	var next [1 << bits]int
	for shift := uint(0); shift < 64; shift += bits {
		if differ>>shift&mask == 0 {
			continue
		}
		clear(next[:])
		for _, x := range src {
			next[x>>shift&mask]++
		}
		sum := 0
		for d, count := range next {
			next[d] = sum
			sum += count
		}
		for _, x := range src {
			d := x >> shift & mask
			dst[next[d]] = x
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
