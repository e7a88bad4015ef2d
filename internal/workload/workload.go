// Package workload generates the set pairs used throughout the paper's
// evaluation (§8, "Experiment Setup"): elements of A are drawn uniformly at
// random without replacement from a 32-bit universe, and B is a uniform
// subsample of A of size |A|−d, so that A△B = A\B contains exactly d
// elements.
//
// A more general generator is also provided for scenarios (and tests) where
// the difference is split between the two sides.
package workload

import (
	"fmt"
	"math/rand"
)

// Pair is a generated set pair with ground truth.
type Pair struct {
	A, B []uint64
	Diff []uint64 // A△B, the ground-truth difference
}

// Config controls generation.
type Config struct {
	UniverseBits uint    // signature length log|U|; the paper uses 32
	SizeA        int     // |A|; the paper fixes 10^6
	D            int     // |A△B|
	BOnlyFrac    float64 // fraction of the d differences that live only in B (0 = paper setup, B ⊂ A)
	Seed         int64
}

// Generate builds a set pair per cfg. It returns an error on inconsistent
// parameters (d > |A|, universe too small to hold |A| distinct elements,
// etc.). Element 0 is excluded from the universe, as required by the XOR
// trick of §2.1.
func Generate(cfg Config) (*Pair, error) {
	if cfg.UniverseBits < 1 || cfg.UniverseBits > 64 {
		return nil, fmt.Errorf("workload: universe bits %d out of range", cfg.UniverseBits)
	}
	if cfg.D < 0 || cfg.SizeA < 0 {
		return nil, fmt.Errorf("workload: negative sizes")
	}
	dB := int(float64(cfg.D) * cfg.BOnlyFrac)
	dA := cfg.D - dB
	if dA > cfg.SizeA {
		return nil, fmt.Errorf("workload: d=%d exceeds |A|=%d", cfg.D, cfg.SizeA)
	}
	need := uint64(cfg.SizeA + dB)
	var uniLimit uint64
	if cfg.UniverseBits == 64 {
		uniLimit = ^uint64(0)
	} else {
		uniLimit = (uint64(1) << cfg.UniverseBits) - 1 // elements 1..uniLimit
	}
	if need > uniLimit/2 {
		return nil, fmt.Errorf("workload: universe 2^%d too small for %d distinct elements",
			cfg.UniverseBits, need)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seen := make(map[uint64]struct{}, need)
	draw := func() uint64 {
		for {
			x := rng.Uint64()&uniLimit | 0 // in [0, uniLimit]
			if x == 0 {
				continue
			}
			if _, dup := seen[x]; dup {
				continue
			}
			seen[x] = struct{}{}
			return x
		}
	}

	a := make([]uint64, cfg.SizeA)
	for i := range a {
		a[i] = draw()
	}
	// B = (A minus dA random elements) plus dB fresh elements.
	perm := rng.Perm(cfg.SizeA)
	removed := make(map[int]struct{}, dA)
	for _, i := range perm[:dA] {
		removed[i] = struct{}{}
	}
	b := make([]uint64, 0, cfg.SizeA-dA+dB)
	diff := make([]uint64, 0, cfg.D)
	for i, x := range a {
		if _, gone := removed[i]; gone {
			diff = append(diff, x)
		} else {
			b = append(b, x)
		}
	}
	for i := 0; i < dB; i++ {
		x := draw()
		b = append(b, x)
		diff = append(diff, x)
	}
	return &Pair{A: a, B: b, Diff: diff}, nil
}

// MustGenerate is like Generate but panics on error.
func MustGenerate(cfg Config) *Pair {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// ManySetName returns the registry name of set idx in a many-sets run.
// pbs-serve -host-sets and the loadgen fleet both name the catalog through
// it, so a server and its clients agree on the names by construction.
func ManySetName(idx int) string {
	return fmt.Sprintf("bench/s%06d", idx)
}

// ManySet returns the deterministic element set of index idx in a
// many-sets workload: size distinct nonzero 32-bit elements derived from
// (seed, idx) alone, so a server can host set idx and any client can
// reproduce it (and carve a known difference out of it) without the two
// ever exchanging the elements. Elements stream from a splitmix64
// sequence — no O(universe) state — so generating a 10^5-set catalog is
// cheap.
func ManySet(seed int64, idx, size int) []uint64 {
	const mask = (1 << 32) - 1
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx+1)*0xBF58476D1CE4E5B9
	out := make([]uint64, 0, size)
	seen := make(map[uint64]struct{}, size)
	for len(out) < size {
		// splitmix64 step
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		e := z & mask
		if e == 0 {
			continue
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}
