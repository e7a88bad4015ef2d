// KV-store anti-entropy: the distributed-database motivation of §1.
//
// Two replicas of a key-value store drift apart (missed writes on either
// side). Anti-entropy runs PBS over the 32-bit key-version signatures:
// Set.Sync on the primary against Set.Respond on the backup, across a real
// byte-stream transport (net.Pipe), exactly as a production system would
// across TCP.
//
// Run with: go run ./examples/kvsync
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"

	"pbs"
)

// replica is a toy KV store; the reconciled set contains signatures mixing
// the key and its version, so a stale value shows up as two differences
// (old signature on one side, new on the other).
type replica struct {
	name string
	data map[uint32]uint16 // key -> version
}

func (r *replica) signatures() []uint64 {
	out := make([]uint64, 0, len(r.data))
	for k, v := range r.data {
		out = append(out, sig(k, v))
	}
	return out
}

// sig packs a 23-bit key and an 8-bit version into a nonzero 32-bit
// signature. (A real system would hash key+version; packing keeps the demo
// decodable.)
func sig(key uint32, ver uint16) uint64 {
	return uint64(key&0x7FFFFF+1)<<8 | uint64(ver&0xFF)
}

func unpack(s uint64) (key uint32, ver uint16) {
	return uint32(s>>8) - 1, uint16(s & 0xFF)
}

func main() {
	rng := rand.New(rand.NewSource(5))
	primary := &replica{name: "primary", data: map[uint32]uint16{}}
	backup := &replica{name: "backup", data: map[uint32]uint16{}}

	for i := 0; i < 150_000; i++ {
		k := rng.Uint32() & 0x7FFFFF
		v := uint16(rng.Intn(200))
		primary.data[k] = v
		backup.data[k] = v
	}
	// Drift: writes the backup missed (new keys + version bumps).
	missed := 0
	for k := range primary.data {
		if missed >= 300 {
			break
		}
		primary.data[k]++
		missed++
	}
	for i := 0; i < 200; i++ {
		primary.data[rng.Uint32()&0x7FFFFF|0x400000] = 1
	}

	// Anti-entropy over a real byte-stream transport. WithKnownD provisions
	// the fast sync's first round for the expected drift, so round one
	// rides the opening hello instead of waiting on an estimate exchange.
	primarySet, err := pbs.NewSet(primary.signatures(), pbs.WithSeed(31))
	if err != nil {
		log.Fatal(err)
	}
	backupSet, err := pbs.NewSet(backup.signatures(), pbs.WithSeed(31))
	if err != nil {
		log.Fatal(err)
	}
	connA, connB := net.Pipe()
	respErr := make(chan error, 1)
	go func() { respErr <- backupSet.Respond(context.Background(), connB) }()
	res, err := primarySet.Sync(context.Background(), connA, pbs.WithKnownD(1200))
	if err != nil {
		log.Fatal(err)
	}
	if err := <-respErr; err != nil {
		log.Fatal(err)
	}
	connA.Close()

	// Interpret the difference: which keys does the backup need?
	stale, fresh := 0, 0
	for _, s := range res.Difference {
		key, ver := unpack(s)
		cur, ok := primary.data[key]
		switch {
		case ok && cur == ver: // primary-side signature: push key to backup
			backup.data[key] = ver
			fresh++
		default: // backup-side stale signature
			stale++
		}
	}
	fmt.Printf("anti-entropy finished in %d rounds: pushed %d key versions (%d stale signatures retired)\n",
		res.Rounds, fresh, stale)

	// Verify convergence.
	same := len(primary.data) == len(backup.data)
	for k, v := range primary.data {
		if backup.data[k] != v {
			same = false
			break
		}
	}
	fmt.Printf("replicas converged: %v (%d keys)\n", same, len(primary.data))
}
