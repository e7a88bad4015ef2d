// Blockchain transaction relay: the motivating application of §1.3.4.
//
// A small peer-to-peer network of mempools gossips transactions; each sync
// uses PBS to reconcile 64-bit-truncated transaction IDs (the Erlay-style
// compression the paper describes) instead of flooding full inventories.
// The example reports how much bandwidth reconciliation saves versus the
// naive "send all IDs" protocol.
//
// Run with: go run ./examples/blockchain
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"pbs"
)

// mempool is one peer's set of transaction IDs (48-bit signatures here,
// standing in for truncated tx hashes).
type mempool struct {
	name string
	txs  map[uint64]struct{}
}

func (m *mempool) slice() []uint64 {
	out := make([]uint64, 0, len(m.txs))
	for x := range m.txs {
		out = append(out, x)
	}
	return out
}

const sigBits = 48

func main() {
	rng := rand.New(rand.NewSource(99))
	peers := []*mempool{
		{name: "alice", txs: map[uint64]struct{}{}},
		{name: "bob", txs: map[uint64]struct{}{}},
		{name: "carol", txs: map[uint64]struct{}{}},
	}

	// A shared backbone of confirmed transactions...
	backbone := make([]uint64, 200_000)
	for i := range backbone {
		backbone[i] = newTx(rng)
		for _, p := range peers {
			p.txs[backbone[i]] = struct{}{}
		}
	}
	// ...plus fresh transactions that arrived at individual peers only.
	for _, p := range peers {
		n := 100 + rng.Intn(400)
		for i := 0; i < n; i++ {
			p.txs[newTx(rng)] = struct{}{}
		}
	}

	fmt.Println("relay round: every peer syncs with the next (ring topology)")
	var totalPayload, totalNaive int
	for i, p := range peers {
		q := peers[(i+1)%len(peers)]
		res, err := reconcile(p, q, uint64(i)+7)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Complete {
			log.Fatalf("sync %s<->%s incomplete", p.name, q.name)
		}
		// Bidirectional set reconciliation (§1.1): p learns the full
		// difference and forwards q's missing transactions.
		added := 0
		for _, tx := range res.Difference {
			if _, mine := p.txs[tx]; !mine {
				p.txs[tx] = struct{}{}
				added++
			} else {
				q.txs[tx] = struct{}{}
			}
		}
		naive := len(q.txs) * sigBits / 8 // send the whole inventory
		totalPayload += res.PayloadBytes + res.EstimatorBytes
		totalNaive += naive
		fmt.Printf("  %s <-> %s: %4d differing txs, %2d rounds, %7dB payload (naive inventory: %dB)\n",
			p.name, q.name, len(res.Difference), res.Rounds, res.PayloadBytes, naive)
		_ = added
	}
	fmt.Printf("total relay bandwidth: %dB with PBS vs %dB naive (%.0fx saving)\n",
		totalPayload, totalNaive, float64(totalNaive)/float64(totalPayload))

	// Verify convergence of the ring after one more pass.
	for pass := 0; pass < 2; pass++ {
		for i, p := range peers {
			q := peers[(i+1)%len(peers)]
			res, err := reconcile(p, q, uint64(pass*10+i)+100)
			if err != nil || !res.Complete {
				log.Fatal("follow-up sync failed")
			}
			for _, tx := range res.Difference {
				p.txs[tx] = struct{}{}
				q.txs[tx] = struct{}{}
			}
		}
	}
	sizes := map[int]bool{}
	for _, p := range peers {
		sizes[len(p.txs)] = true
	}
	fmt.Printf("converged: all %d peers hold identical mempools = %v\n", len(peers), len(sizes) == 1)
}

// reconcile learns p △ q under a fresh per-sync seed.
func reconcile(p, q *mempool, seed uint64) (*pbs.Result, error) {
	a, err := pbs.NewSet(p.slice(), pbs.WithSeed(seed), pbs.WithSigBits(sigBits))
	if err != nil {
		return nil, err
	}
	b, err := pbs.NewSet(q.slice(), pbs.WithSeed(seed), pbs.WithSigBits(sigBits))
	if err != nil {
		return nil, err
	}
	return a.Reconcile(context.Background(), b)
}

func newTx(rng *rand.Rand) uint64 {
	for {
		x := rng.Uint64() & ((1 << sigBits) - 1)
		if x != 0 {
			return x
		}
	}
}
