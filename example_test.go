package pbs_test

import (
	"context"
	"fmt"
	"net"
	"sort"

	"pbs"
)

// ExampleSet_Sync shows the primary API: long-lived Set handles syncing
// over a connection — here a net.Pipe, in deployments any net.Conn — with
// context cancellation available throughout.
func ExampleSet_Sync() {
	local, err := pbs.NewSet([]uint64{10, 20, 30, 40, 50}, pbs.WithSeed(7))
	if err != nil {
		panic(err)
	}
	remote, err := pbs.NewSet([]uint64{10, 20, 30, 60}, pbs.WithSeed(7))
	if err != nil {
		panic(err)
	}

	ca, cb := net.Pipe()
	go remote.Respond(context.Background(), cb)
	res, err := local.Sync(context.Background(), ca)
	if err != nil {
		panic(err)
	}

	sort.Slice(res.Difference, func(i, j int) bool { return res.Difference[i] < res.Difference[j] })
	fmt.Println("complete:", res.Complete)
	fmt.Println("difference:", res.Difference)

	// The handles stay warm: mutate and sync again without re-validating
	// or re-sketching either set.
	local.Add(70)
	ca, cb = net.Pipe()
	go remote.Respond(context.Background(), cb)
	res, err = local.Sync(context.Background(), ca)
	if err != nil {
		panic(err)
	}
	sort.Slice(res.Difference, func(i, j int) bool { return res.Difference[i] < res.Difference[j] })
	fmt.Println("after Add(70):", res.Difference)
	// Output:
	// complete: true
	// difference: [40 50 60]
	// after Add(70): [40 50 60 70]
}

// ExampleWithOnDelta shows streaming delta delivery: PBS reconciles each
// group pair independently, so verified differences are handed to the
// callback round by round instead of only with the final Result.
func ExampleWithOnDelta() {
	a, err := pbs.NewSet([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, pbs.WithSeed(3))
	if err != nil {
		panic(err)
	}
	b, err := pbs.NewSet([]uint64{1, 2, 3, 4, 9}, pbs.WithSeed(3))
	if err != nil {
		panic(err)
	}

	var streamed []uint64
	res, err := a.Reconcile(context.Background(), b,
		pbs.WithOnDelta(func(elems []uint64, round int) {
			streamed = append(streamed, elems...) // apply deltas as they verify
		}))
	if err != nil {
		panic(err)
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i] < streamed[j] })
	fmt.Println("streamed:", streamed)
	fmt.Println("streamed everything:", len(streamed) == len(res.Difference))
	// Output:
	// streamed: [5 6 7 8 9]
	// streamed everything: true
}

// ExampleSet_Reconcile shows the one-call path: both endpoints' session
// engines stepped in process — estimate the difference cardinality, size
// the first round from it, and run the protocol to completion.
func ExampleSet_Reconcile() {
	alice, err := pbs.NewSet([]uint64{10, 20, 30, 40, 50}, pbs.WithSeed(7))
	if err != nil {
		panic(err)
	}
	bob, err := pbs.NewSet([]uint64{10, 20, 30, 60}, pbs.WithSeed(7))
	if err != nil {
		panic(err)
	}

	res, err := alice.Reconcile(context.Background(), bob)
	if err != nil {
		panic(err)
	}
	sort.Slice(res.Difference, func(i, j int) bool { return res.Difference[i] < res.Difference[j] })
	fmt.Println("complete:", res.Complete)
	fmt.Println("difference:", res.Difference)
	// Output:
	// complete: true
	// difference: [40 50 60]
}

// ExamplePlanFor shows explicit parameter planning for a known difference
// bound, the mode real deployments use after their own estimation step.
func ExamplePlanFor() {
	plan, err := pbs.PlanFor(1000, &pbs.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bitmap bins n=%d, BCH capacity t=%d, groups g=%d\n",
		plan.N(), plan.T, plan.Groups)
	// Output:
	// bitmap bins n=127, BCH capacity t=11, groups g=200
}
