package exper

import (
	"fmt"

	"pbs/internal/hashutil"
)

// MinWise estimates the set-difference cardinality through the Jaccard
// similarity J = |A∩B| / |A∪B| obtained from k min-wise hash signatures
// (Broder et al., surveyed in App. B of the PBS paper). With |A| and |B|
// known, d = |A△B| = (1−J)/(1+J) · (|A| + |B|).
type MinWise struct {
	k     int
	seeds []uint64
}

// NewMinWise returns a min-wise estimator with k permutations.
func NewMinWise(k int, seed uint64) (*MinWise, error) {
	if k < 1 {
		return nil, fmt.Errorf("exper: minwise k=%d must be >= 1", k)
	}
	return &MinWise{k: k, seeds: hashutil.Seeds(seed, k)}, nil
}

// Sketch computes the k min-hash values of set. An empty set yields all
// MaxUint64 sentinels.
func (m *MinWise) Sketch(set []uint64) []uint64 {
	mins := make([]uint64, m.k)
	for i := range mins {
		mins[i] = ^uint64(0)
	}
	for _, x := range set {
		for i, s := range m.seeds {
			if h := hashutil.XXH64Uint64(x, s); h < mins[i] {
				mins[i] = h
			}
		}
	}
	return mins
}

// Bits returns the wire size of one sketch vector (64 bits per min-hash).
func (m *MinWise) Bits() int { return m.k * 64 }

// Estimate returns d̂ given the two parties' sketches and set sizes.
func (m *MinWise) Estimate(sa, sb []uint64, sizeA, sizeB int) (float64, error) {
	if len(sa) != m.k || len(sb) != m.k {
		return 0, fmt.Errorf("exper: sketch length mismatch")
	}
	match := 0
	for i := range sa {
		if sa[i] == sb[i] {
			match++
		}
	}
	j := float64(match) / float64(m.k)
	if j >= 1 {
		return 0, nil
	}
	return (1 - j) / (1 + j) * float64(sizeA+sizeB), nil
}
