package pbs

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs the same code paths as cmd/pbs-experiments at reduced scale and
// reports the figure's headline metric (communication KB, success rate)
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// series shapes. Full-scale sweeps: cmd/pbs-experiments.

import (
	"context"
	"fmt"
	"net"
	"testing"

	"pbs/internal/core"
	"pbs/internal/exper"
	"pbs/internal/markov"
	"pbs/internal/workload"
)

// benchSizeA keeps bench instances fast while preserving the |B| >> d
// regime of the paper for most d values.
const benchSizeA = 50000

func sweepBench(b *testing.B, algo exper.Algo, d int, run exper.RunConfig) {
	b.Helper()
	inst, err := exper.NewInstance(benchSizeA, d, int64(d)*31+7)
	if err != nil {
		b.Fatal(err)
	}
	var comm, success, rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := exper.Run(algo, inst, run)
		if err != nil {
			b.Fatal(err)
		}
		comm += m.CommBytes / 1024
		rounds += float64(m.Rounds)
		if m.Success {
			success++
		}
	}
	b.ReportMetric(comm/float64(b.N), "commKB")
	b.ReportMetric(success/float64(b.N), "success")
	b.ReportMetric(rounds/float64(b.N), "rounds")
}

// fig1Ds is the reduced d grid used by the figure benches.
var fig1Ds = []int{10, 100, 1000}

// BenchmarkFig1 regenerates Figure 1 (PBS vs PinSketch vs D.Digest,
// p0 = 0.99): success rate, data transmitted, encode+decode time.
func BenchmarkFig1(b *testing.B) {
	for _, algo := range []exper.Algo{exper.AlgoPBS, exper.AlgoPinSketch, exper.AlgoDDigest} {
		for _, d := range fig1Ds {
			if algo == exper.AlgoPinSketch && d > 1000 {
				continue
			}
			b.Run(fmt.Sprintf("%s/d=%d", algo, d), func(b *testing.B) {
				sweepBench(b, algo, d, exper.RunConfig{MaxRounds: 3})
			})
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (PBS vs Graphene, p0 = 239/240).
func BenchmarkFig2(b *testing.B) {
	for _, algo := range []exper.Algo{exper.AlgoPBS, exper.AlgoGraphene} {
		for _, d := range fig1Ds {
			b.Run(fmt.Sprintf("%s/d=%d", algo, d), func(b *testing.B) {
				sweepBench(b, algo, d, exper.RunConfig{
					TargetSuccess: 239.0 / 240, MaxRounds: 3, GrapheneTau: 2.4,
				})
			})
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (PBS vs PinSketch/WP, p0 = 0.99).
func BenchmarkFig3(b *testing.B) {
	for _, algo := range []exper.Algo{exper.AlgoPBS, exper.AlgoPinSketchWP} {
		for _, d := range fig1Ds {
			b.Run(fmt.Sprintf("%s/d=%d", algo, d), func(b *testing.B) {
				sweepBench(b, algo, d, exper.RunConfig{MaxRounds: 3})
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (PBS vs δ at fixed d): the
// communication/computation tradeoff knob.
func BenchmarkFig4(b *testing.B) {
	const d = 1000
	for _, delta := range []int{3, 5, 10, 20, 30} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			sweepBench(b, exper.AlgoPBS, d, exper.RunConfig{Delta: delta, MaxRounds: 3})
		})
	}
}

// BenchmarkFig5 regenerates Figure 5 (communication at 256-bit signatures):
// PBS's margin over PinSketch/WP must widen versus Figure 3.
func BenchmarkFig5(b *testing.B) {
	for _, algo := range []exper.Algo{exper.AlgoPBS, exper.AlgoPinSketchWP} {
		for _, d := range fig1Ds {
			b.Run(fmt.Sprintf("%s/d=%d", algo, d), func(b *testing.B) {
				inst, err := exper.NewInstance(benchSizeA, d, int64(d)*17+3)
				if err != nil {
					b.Fatal(err)
				}
				var comm256 float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := exper.Run(algo, inst, exper.RunConfig{MaxRounds: 3})
					if err != nil {
						b.Fatal(err)
					}
					comm256 += m.CommBytes256 / 1024
				}
				b.ReportMetric(comm256/float64(b.N), "commKB@256bit")
			})
		}
	}
}

// BenchmarkTable1 regenerates the Appendix H success-probability grid
// (d=1000, δ=5, r=3) and reports the optimal cell's bound.
func BenchmarkTable1(b *testing.B) {
	ts := []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	ms := []uint{6, 7, 8, 9, 10, 11}
	var bound float64
	for i := 0; i < b.N; i++ {
		tab := markov.BoundTable(1000, 5, 3, ts, ms)
		bound = tab[5][1] // t=13, n=127: the paper's darkened cell
	}
	b.ReportMetric(bound, "bound(127,13)")
}

// BenchmarkTable2 regenerates the Appendix J.1 rounds pmf at a
// representative d and reports the mean number of rounds.
func BenchmarkTable2(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		pmf, err := exper.RoundsPMF(100, 20000, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for r, p := range pmf {
			mean += float64(r+1) * p
		}
	}
	b.ReportMetric(mean, "meanRounds")
}

// BenchmarkSec52 regenerates the §5.2 study: optimal per-group
// communication versus the round budget r.
func BenchmarkSec52(b *testing.B) {
	var comm3 int
	for i := 0; i < b.N; i++ {
		rows, err := exper.Sec52(1000, 5, 4, 0.99, 32)
		if err != nil {
			b.Fatal(err)
		}
		comm3 = rows[2].CommBits
	}
	b.ReportMetric(float64(comm3), "bits/group@r=3")
}

// BenchmarkSec53 regenerates the §5.3 piecewise-reconciliability profile
// and reports the round-1 proportion (paper: 0.962).
func BenchmarkSec53(b *testing.B) {
	var p1 float64
	for i := 0; i < b.N; i++ {
		props, _, err := exper.Sec53(1000, 5, 3, 0.99, 4)
		if err != nil {
			b.Fatal(err)
		}
		p1 = props[0]
	}
	b.ReportMetric(p1, "round1Fraction")
}

// BenchmarkAblationBitmapSize sweeps the parity-bitmap length n at fixed
// t, isolating the §5.1 design choice of optimizing n: too-small bitmaps
// force extra rounds (more communication), too-large ones waste codeword
// bits.
func BenchmarkAblationBitmapSize(b *testing.B) {
	for _, m := range []uint{5, 7, 9, 11} {
		b.Run(fmt.Sprintf("n=%d", (1<<m)-1), func(b *testing.B) {
			inst, err := exper.NewInstance(20000, 200, 77)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := core.NewPlan(inst.DHat, core.Config{Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			plan.M = m
			if uint64(plan.T) > plan.N()/2 {
				plan.T = int(plan.N() / 2)
			}
			var comm, rounds float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				init, err := core.NewAlice(inst.Pair.A, plan)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := core.NewBob(inst.Pair.B, plan)
				if err != nil {
					b.Fatal(err)
				}
				bits := 0
				for !init.Done() {
					msg, err := init.BuildRound()
					if err != nil || msg == nil {
						break
					}
					reply, err := resp.HandleRound(msg)
					if err != nil {
						b.Fatal(err)
					}
					bits += (len(msg) + len(reply)) * 8
					if err := init.AbsorbReply(reply); err != nil {
						b.Fatal(err)
					}
				}
				comm += float64(bits) / 8192
				rounds += float64(init.Rounds())
			}
			b.ReportMetric(comm/float64(b.N), "commKB")
			b.ReportMetric(rounds/float64(b.N), "rounds")
		})
	}
}

// BenchmarkAblationSplitWays evaluates the §3.2 split fan-out analytically:
// the conditional probability that a split leaves an overloaded child.
func BenchmarkAblationSplitWays(b *testing.B) {
	for _, ways := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				p = markov.SplitOverloadProbability(1000, 200, 13, ways)
			}
			b.ReportMetric(p, "overloadProb")
		})
	}
}

// BenchmarkParallelism compares the sequential reference path
// (Parallelism: 1) against the worker-pool decode engine (Parallelism: 0 =
// GOMAXPROCS) on full reconciliation sessions. PBS group pairs decode
// independently (piecewise reconciliability), so per-group BCH work scales
// across cores; on a multi-core machine the par/seq ratio at d = 10000
// should approach the core count.
func BenchmarkParallelism(b *testing.B) {
	for _, d := range []int{100, 1000, 10000} {
		p := workload.MustGenerate(workload.Config{
			UniverseBits: 32, SizeA: benchSizeA, D: d, Seed: int64(d)*13 + 5,
		})
		for _, mode := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(fmt.Sprintf("%s/d=%d", mode.name, d), func(b *testing.B) {
				plan, err := core.NewPlan(d, core.Config{Seed: 9, Parallelism: mode.workers})
				if err != nil {
					b.Fatal(err)
				}
				var rounds float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					init, err := core.NewAlice(p.A, plan)
					if err != nil {
						b.Fatal(err)
					}
					resp, err := core.NewBob(p.B, plan)
					if err != nil {
						b.Fatal(err)
					}
					for !init.Done() {
						msg, err := init.BuildRound()
						if err != nil {
							b.Fatal(err)
						}
						if msg == nil {
							break
						}
						reply, err := resp.HandleRound(msg)
						if err != nil {
							b.Fatal(err)
						}
						if err := init.AbsorbReply(reply); err != nil {
							b.Fatal(err)
						}
					}
					if !init.Done() || len(init.Difference()) != len(p.Diff) {
						b.Fatal("reconciliation failed")
					}
					rounds += float64(init.Rounds())
				}
				b.ReportMetric(rounds/float64(b.N), "rounds")
			})
		}
	}
}

// BenchmarkEstimator measures the ToW estimator end to end (§6).
func BenchmarkEstimator(b *testing.B) {
	inst, err := exper.NewInstance(benchSizeA, 1000, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reconcile(inst.Pair.A, inst.Pair.B, WithSeed(uint64(i)))
		if err != nil || !res.Complete {
			b.Fatal("reconcile failed")
		}
	}
}

// steadyChurn returns a write generator for set a of pair p that keeps
// |A△B| fixed at |p.Diff| + batch: each call makes 2·batch effective writes
// — batch common elements leave A and the batch that left last time return.
// The first batch has already left when it returns.
func steadyChurn(tb testing.TB, a *Set, p *workload.Pair, batch int) func(i int) {
	inB := make(map[uint64]struct{}, len(p.B))
	for _, x := range p.B {
		inB[x] = struct{}{}
	}
	var common []uint64
	for _, x := range p.A {
		if _, ok := inB[x]; ok {
			common = append(common, x)
		}
	}
	out := common[:batch]
	a.Remove(out...)
	return func(i int) {
		next := common[(i+1)*batch%(len(common)-batch):][:batch]
		a.Remove(next...)
		if _, err := a.Add(out...); err != nil {
			tb.Fatal(err)
		}
		out = next
	}
}

// BenchmarkAPI quantifies the Set API's amortization win: one full wire
// sync per iteration over an in-memory pipe, either from long-lived warm
// handles (validation, ToW sketch, snapshot, and partitions carried over
// between syncs) or rebuilt from raw slices per sync.
func BenchmarkAPI(b *testing.B) {
	// Enough untimed syncs for every processor's share of the scratch pools
	// to fill, so a short timed run (say -benchtime 3x) counts the steady
	// state's allocations and not a pool miss or two.
	const apiPrimingSyncs = 32

	p, err := workload.Generate(workload.Config{UniverseBits: 32, SizeA: 50000, D: 100, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	opt := WithSeed(78)

	syncOnce := func(b *testing.B, initiate func(conn net.Conn) (*Result, error), respond func(conn net.Conn) error) {
		b.Helper()
		ca, cb := net.Pipe()
		respErr := make(chan error, 1)
		go func() {
			defer cb.Close()
			respErr <- respond(cb)
		}()
		res, err := initiate(ca)
		ca.Close()
		if err != nil {
			b.Fatal(err)
		}
		if err := <-respErr; err != nil {
			b.Fatal(err)
		}
		if !res.Complete || len(res.Difference) != len(p.Diff) {
			b.Fatalf("bad sync: complete=%v |diff|=%d", res.Complete, len(res.Difference))
		}
	}

	b.Run("warm-set/d=100", func(b *testing.B) {
		sa, sb := mustSet(b, p.A, opt), mustSet(b, p.B, opt)
		ctx := context.Background()
		// Untimed priming syncs: the handle's lazy one-time costs
		// (estimator sketch, snapshot, partitions, pooled scratch) land
		// here, so the timed loop measures the steady state a long-lived
		// handle runs in — which is the quantity this benchmark exists to
		// compare.
		for i := 0; i < apiPrimingSyncs; i++ {
			syncOnce(b,
				func(conn net.Conn) (*Result, error) { return sa.Sync(ctx, conn) },
				func(conn net.Conn) error { return sb.Respond(ctx, conn) })
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			syncOnce(b,
				func(conn net.Conn) (*Result, error) { return sa.Sync(ctx, conn) },
				func(conn net.Conn) error { return sb.Respond(ctx, conn) })
		}
	})

	// The incremental path: every iteration writes to the warm handle before
	// reconciling, so the view is the previous one with a journal applied —
	// what a long-lived set that keeps changing pays per reconcile. d is
	// given rather than estimated: a noisy d̂ moves the group count from one
	// reconcile to the next, and a gate needs the same plan shape every time.
	b.Run("warm-set-churn/d=100", func(b *testing.B) {
		sa, sb := mustSet(b, p.A, opt), mustSet(b, p.B, opt)
		// 50 effective writes per iteration that keep |A△B| fixed: 25
		// common elements leave A and the 25 that left last time return.
		const batch = 25
		ctx := context.Background()
		churn := steadyChurn(b, sa, p, batch)
		reconcile := func() {
			res, err := sa.Reconcile(ctx, sb, WithKnownD(len(p.Diff)+batch))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Complete || len(res.Difference) != len(p.Diff)+batch {
				b.Fatalf("bad reconcile: complete=%v |diff|=%d", res.Complete, len(res.Difference))
			}
		}
		for i := 0; i < apiPrimingSyncs; i++ { // untimed: first view, partitions, pooled scratch
			churn(i)
			reconcile()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churn(apiPrimingSyncs + i)
			reconcile()
		}
	})

	b.Run("cold-construct/d=100", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			sa, sb := mustSet(b, p.A, opt), mustSet(b, p.B, opt)
			syncOnce(b,
				func(conn net.Conn) (*Result, error) { return sa.Sync(ctx, conn) },
				func(conn net.Conn) error { return sb.Respond(ctx, conn) })
		}
	})
}
