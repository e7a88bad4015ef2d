// Package estimator implements the set-difference-cardinality estimator PBS
// proposes and uses (§6): Tug-of-War (ToW). Its sketches are linear, so the
// Set handle maintains them incrementally under Add/Remove, and they are
// what the wire protocol exchanges. The Strata and min-wise estimators ToW
// is compared against in Appendix B live with that experiment, in
// internal/exper.
package estimator

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"pbs/internal/hashutil"
)

// DefaultSketches is the ToW sketch count used throughout the paper (ℓ=128).
const DefaultSketches = 128

// DefaultGamma is the conservative scale factor applied to the ToW estimate:
// the paper finds γ = 1.38 is the smallest value with Pr[d ≤ γ·d̂] ≥ 99%
// at ℓ = 128 (§6.2).
const DefaultGamma = 1.38

// ToW is a Tug-of-War set-difference-cardinality estimator with ℓ sketches.
// Each sketch Y_f(S) = Σ_{s∈S} f(s) for a 4-wise independent ±1 hash f;
// (Y_f(A) − Y_f(B))² is an unbiased estimator of |A△B| (§6.1, App. A).
//
// The ℓ hash functions are held in a bank whose one pass per element
// reduces each polynomial mod 2^61−1 once, over precomputed element powers;
// a whole-set Sketch of more than a few thousand elements fans out.
type ToW struct {
	bank *hashutil.FourWiseBank
}

// NewToW returns a ToW estimator with l sketches derived from seed. Both
// parties must construct it with identical (l, seed).
func NewToW(l int, seed uint64) (*ToW, error) {
	if l < 1 {
		return nil, fmt.Errorf("estimator: sketch count l=%d must be >= 1", l)
	}
	return &ToW{bank: hashutil.NewFourWiseBank(hashutil.Seeds(seed, l))}, nil
}

// MustNewToW is like NewToW but panics on invalid parameters.
func MustNewToW(l int, seed uint64) *ToW {
	t, err := NewToW(l, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// L returns the sketch count.
func (t *ToW) L() int { return t.bank.Len() }

// sketchFanOut is the set size above which Sketch splits the set across
// GOMAXPROCS goroutines: below it a pass takes a few milliseconds at most.
const sketchFanOut = 1 << 12

// Sketch computes the ℓ ToW sketches of set, in one batched pass over all
// ℓ hash functions per element. A set above sketchFanOut is cut into
// GOMAXPROCS parts, the first summed on the calling goroutine and each
// other into its own vector on a goroutine of its own; the sketch is a sum
// over the elements, so the parts' vectors add up to exactly the sketch of
// the whole.
func (t *ToW) Sketch(set []uint64) []int64 {
	parts := 1
	if len(set) > sketchFanOut {
		parts = runtime.GOMAXPROCS(0)
	}
	sketchPart := func(k int, ys []int64) {
		for _, x := range set[k*len(set)/parts : (k+1)*len(set)/parts] {
			t.bank.AddSigns(x, ys)
		}
	}
	ys := make([]int64, t.L())
	sums := make([][]int64, parts-1)
	var wg sync.WaitGroup
	for k := range sums {
		sums[k] = make([]int64, t.L())
		wg.Add(1)
		go func() {
			defer wg.Done()
			sketchPart(k+1, sums[k])
		}()
	}
	sketchPart(0, ys)
	wg.Wait()
	for _, sum := range sums {
		for i, y := range sum {
			ys[i] += y
		}
	}
	return ys
}

// Add updates the sketch vector ys (length ℓ) with one new element:
// ys ← ys + f(x). The ToW sketch is a linear function of the set's
// indicator vector, so a long-lived set handle can maintain its sketch
// under mutation in O(ℓ) per element instead of re-sketching O(|S|·ℓ).
func (t *ToW) Add(ys []int64, x uint64) { t.bank.AddSigns(x, ys) }

// Remove cancels one element's contribution from the sketch vector ys:
// ys ← ys − f(x). It is the exact inverse of Add.
func (t *ToW) Remove(ys []int64, x uint64) { t.bank.SubSigns(x, ys) }

// Estimate combines the two parties' sketch vectors into the unbiased
// estimate d̂ = (1/ℓ)·Σ (Y_i(A) − Y_i(B))².
func (t *ToW) Estimate(ya, yb []int64) (float64, error) {
	if len(ya) != t.L() || len(yb) != t.L() {
		return 0, fmt.Errorf("estimator: sketch length mismatch (%d, %d; want %d)",
			len(ya), len(yb), t.L())
	}
	var sum float64
	for i := range ya {
		d := float64(ya[i] - yb[i])
		sum += d * d
	}
	return sum / float64(len(ya)), nil
}

// Bits returns the communication cost of one party's sketch vector in bits:
// ℓ·⌈log2(2·setSize+1)⌉, each sketch being an integer in [−|S|, |S|]
// (§6.1). With ℓ = 128 and |S| = 10^6 this is the paper's 336 bytes.
func (t *ToW) Bits(setSize int) int {
	perSketch := int(math.Ceil(math.Log2(float64(2*setSize + 1))))
	return t.L() * perSketch
}

// ConservativeD scales the raw estimate by gamma and rounds up, yielding the
// d value both parties plug into parameter selection. A floor of 1 keeps
// degenerate estimates usable.
func ConservativeD(dhat, gamma float64) int {
	d := int(math.Ceil(dhat * gamma))
	if d < 1 {
		d = 1
	}
	return d
}

// EstimateD is a one-shot convenience: sketch both sets locally and return
// the conservative d. Real deployments exchange the sketches instead; the
// experiment harness uses this because it simulates both parties in one
// process. bits reports the one-way communication cost that a real exchange
// would incur (and that the harness accounts separately, like the paper).
func (t *ToW) EstimateD(a, b []uint64, gamma float64) (d int, bits int, err error) {
	ya := t.Sketch(a)
	yb := t.Sketch(b)
	dhat, err := t.Estimate(ya, yb)
	if err != nil {
		return 0, 0, err
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return ConservativeD(dhat, gamma), t.Bits(n), nil
}
