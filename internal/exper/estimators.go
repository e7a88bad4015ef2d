package exper

import (
	"math"

	"pbs/internal/estimator"
	"pbs/internal/workload"
)

// EstimatorPoint is one estimator's aggregated accuracy/cost at one d —
// the Appendix B comparison ("the ToW estimator is much more
// space-efficient according to our experiments"; the paper omits the
// table, so this reproduces the claim it summarizes).
type EstimatorPoint struct {
	Name      string
	D         int
	CommBytes int     // one-way sketch size
	MeanRel   float64 // mean of d̂/d
	RMSRel    float64 // RMS relative error of d̂
	Coverage  float64 // Pr[d <= 1.38·d̂] (safety-factor coverage)
}

// EstimatorComparison runs ToW (ℓ=128), Strata (32×80 cells), and min-wise
// (k=1024, sized to roughly Strata's cost) on the same instances.
func EstimatorComparison(ds []int, sizeA, instances int, baseSeed int64) ([]EstimatorPoint, error) {
	var out []EstimatorPoint
	for _, d := range ds {
		accs := map[string]*estAcc{"ToW": {}, "Strata": {}, "MinWise": {}}
		for i := 0; i < instances; i++ {
			pair, err := workload.Generate(workload.Config{
				UniverseBits: 32, SizeA: sizeA, D: d, Seed: baseSeed + int64(d)*37 + int64(i),
			})
			if err != nil {
				return nil, err
			}
			seed := uint64(baseSeed) + uint64(i)*1000 + uint64(d)

			tow, err := estimator.NewToW(estimator.DefaultSketches, seed)
			if err != nil {
				return nil, err
			}
			dhat, err := tow.Estimate(tow.Sketch(pair.A), tow.Sketch(pair.B))
			if err != nil {
				return nil, err
			}
			record(accs["ToW"], dhat, d)
			accs["ToW"].bytes = (tow.Bits(sizeA) + 7) / 8

			st := NewStrata(seed)
			dhat, err = st.Estimate(st.Sketch(pair.A), st.Sketch(pair.B))
			if err != nil {
				return nil, err
			}
			record(accs["Strata"], dhat, d)
			accs["Strata"].bytes = st.Bits(32) / 8

			mw, err := NewMinWise(1024, seed)
			if err != nil {
				return nil, err
			}
			dhat, err = mw.Estimate(mw.Sketch(pair.A), mw.Sketch(pair.B), len(pair.A), len(pair.B))
			if err != nil {
				return nil, err
			}
			record(accs["MinWise"], dhat, d)
			accs["MinWise"].bytes = mw.Bits() / 8
		}
		for _, name := range []string{"ToW", "Strata", "MinWise"} {
			a := accs[name]
			n := float64(instances)
			out = append(out, EstimatorPoint{
				Name:      name,
				D:         d,
				CommBytes: a.bytes,
				MeanRel:   a.sumRel / n,
				RMSRel:    math.Sqrt(a.sumSq / n),
				Coverage:  a.covered / n,
			})
		}
	}
	return out, nil
}

// estAcc accumulates one estimator's per-instance statistics.
type estAcc struct {
	sumRel, sumSq, covered float64
	bytes                  int
}

func record(a *estAcc, dhat float64, d int) {
	rel := dhat / float64(d)
	a.sumRel += rel
	a.sumSq += (rel - 1) * (rel - 1)
	if float64(d) <= estimator.DefaultGamma*dhat {
		a.covered++
	}
}
