// Quickstart: reconcile two in-memory sets through Set handles.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"pbs"
)

func main() {
	// Two hosts hold large, mostly overlapping sets of 32-bit item IDs.
	rng := rand.New(rand.NewSource(7))
	common := make([]uint64, 100_000)
	seen := map[uint64]bool{}
	for i := range common {
		for {
			x := uint64(rng.Uint32())
			if x != 0 && !seen[x] {
				seen[x] = true
				common[i] = x
				break
			}
		}
	}
	alice := append([]uint64{}, common...)
	bob := append([]uint64{}, common...)
	// Alice has 40 items Bob lacks; Bob has 25 items Alice lacks.
	for i := 0; i < 40; i++ {
		alice = append(alice, fresh(rng, seen))
	}
	for i := 0; i < 25; i++ {
		bob = append(bob, fresh(rng, seen))
	}

	// Validate each set once, then one call: estimate d, pick near-optimal
	// parameters, run the rounds.
	setA, err := pbs.NewSet(alice, pbs.WithSeed(2024))
	if err != nil {
		log.Fatal(err)
	}
	setB, err := pbs.NewSet(bob, pbs.WithSeed(2024))
	if err != nil {
		log.Fatal(err)
	}
	res, err := setA.Reconcile(context.Background(), setB)
	if err != nil {
		log.Fatal(err)
	}

	sort.Slice(res.Difference, func(i, j int) bool { return res.Difference[i] < res.Difference[j] })
	fmt.Printf("reconciled: complete=%v |A△B|=%d rounds=%d\n",
		res.Complete, len(res.Difference), res.Rounds)
	fmt.Printf("cost: %d payload bytes + %d estimator bytes (theoretical minimum %d bytes)\n",
		res.PayloadBytes, res.EstimatorBytes, len(res.Difference)*4)

	// Apply the difference: each side adds what only the other held.
	for _, x := range res.Difference {
		if setA.Contains(x) {
			setB.Add(x)
		} else {
			setA.Add(x)
		}
	}
	fmt.Printf("after sync Alice holds %d items (was %d)\n", setA.Len(), len(alice))

	// The handles stay warm: the estimator sketch updated incrementally
	// with every Add, and the next Reconcile reuses the cached snapshot.
	setA.Add(fresh(rng, seen)) // new local item since the last sync
	res2, err := setA.Reconcile(context.Background(), setB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incremental re-sync: %d new difference(s) in %d round(s)\n",
		len(res2.Difference), res2.Rounds)
}

func fresh(rng *rand.Rand, seen map[uint64]bool) uint64 {
	for {
		x := uint64(rng.Uint32())
		if x != 0 && !seen[x] {
			seen[x] = true
			return x
		}
	}
}
