package exper

import (
	"fmt"
	"math/bits"

	"pbs/internal/hashutil"
	"pbs/internal/ibf"
)

// Strata is the Strata estimator of Eppstein et al. (Difference Digest,
// surveyed in App. B of the PBS paper): a ladder of small IBFs where
// stratum i samples elements with probability 2^-(i+1); the difference
// cardinality is extrapolated from the deepest strata that decode.
type Strata struct {
	numStrata int
	cells     int
	k         int
	seed      uint64
}

// NewStrata returns a Strata estimator with the standard configuration of
// the Difference Digest paper: 32 strata of 80 cells each.
func NewStrata(seed uint64) *Strata {
	return &Strata{numStrata: 32, cells: 80, k: 4, seed: seed}
}

// StrataSketch is one party's ladder of IBFs.
type StrataSketch struct {
	filters []*ibf.Filter
}

// stratum assigns x to a stratum by the number of trailing zeros of a hash.
func (s *Strata) stratum(x uint64) int {
	h := hashutil.XXH64Uint64(x, s.seed^0x57A7A)
	tz := bits.TrailingZeros64(h)
	if tz >= s.numStrata {
		tz = s.numStrata - 1
	}
	return tz
}

// Sketch builds the ladder for set.
func (s *Strata) Sketch(set []uint64) *StrataSketch {
	sk := &StrataSketch{filters: make([]*ibf.Filter, s.numStrata)}
	for i := range sk.filters {
		sk.filters[i] = ibf.MustNew(s.cells, s.k, s.seed+uint64(i)*1315423911)
	}
	for _, x := range set {
		sk.filters[s.stratum(x)].Insert(x)
	}
	return sk
}

// Bits returns the wire size of one ladder at the given signature width.
func (s *Strata) Bits(sigBits int) int {
	return s.numStrata * s.cells * 3 * sigBits
}

// Estimate decodes strata from the deepest down; when stratum i is the
// shallowest that fails to decode, the estimate is 2^(i+1) times the count
// recovered from the strata below it... following the standard Strata
// estimator: scan from deepest stratum toward stratum 0, accumulating
// decoded difference counts; upon the first failure at stratum i, return
// 2^(i+1) · (count accumulated so far).
func (s *Strata) Estimate(a, b *StrataSketch) (float64, error) {
	if len(a.filters) != len(b.filters) {
		return 0, fmt.Errorf("exper: strata ladder mismatch")
	}
	count := 0
	for i := s.numStrata - 1; i >= 0; i-- {
		f := a.filters[i].Clone()
		if err := f.Subtract(b.filters[i]); err != nil {
			return 0, err
		}
		pos, neg, ok := f.Decode()
		if !ok {
			return float64(uint64(count)) * float64(uint64(1)<<uint(i+1)), nil
		}
		count += len(pos) + len(neg)
	}
	return float64(count), nil // everything decoded: exact count
}
