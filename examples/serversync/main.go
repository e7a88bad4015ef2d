// Hub-and-spoke reconciliation: the millions-of-clients deployment shape.
//
// One pbs.Set holds a reference catalog (a software-update catalog, a
// certificate-transparency log tip, a mempool) and serves a fleet of
// clients that concurrently reconcile their drifted local copies against
// it over TCP: a pbs.Server holds the Set under DefaultSetName
// (Server.RegisterSet) and Serve answers every connection. Every session
// shares the set's current immutable view — one validated snapshot, one
// ToW sketch, one group partition per plan size — and the set stays
// mutable while serving: catalog updates land with Add/Remove, the
// estimator sketch follows incrementally, and the next admitted session
// sees the new contents. The server's per-session limits (d̂ cap, bytes,
// rounds, idle time) keep one hostile or broken client from hurting the
// rest.
//
// Run with: go run ./examples/serversync
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"pbs"
)

func main() {
	// The reference set: 200k random 32-bit IDs, held as a live handle.
	rng := rand.New(rand.NewSource(7))
	catalogIDs := make(map[uint64]struct{})
	for len(catalogIDs) < 200_000 {
		catalogIDs[uint64(rng.Uint32()|1)] = struct{}{}
	}
	reference := make([]uint64, 0, len(catalogIDs))
	for x := range catalogIDs {
		reference = append(reference, x)
	}

	// Server and clients run under the same protocol options; the Set is
	// built under them too, so it can be registered with the server.
	opt := &pbs.Options{Seed: 42, StrongVerify: true}
	catalog, err := pbs.NewSet(reference, pbs.WithOptions(*opt))
	if err != nil {
		log.Fatal(err)
	}
	srv := pbs.NewServer(pbs.ServerOptions{Protocol: opt})
	if err := srv.RegisterSet(pbs.DefaultSetName, catalog); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("serving %d IDs on %s\n", catalog.Len(), ln.Addr())

	// 32 clients, each missing a different few hundred IDs and carrying a
	// few local extras, sync concurrently.
	const clients = 32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, drift := driftedCopy(reference, int64(i))
			c := &pbs.Client{Addr: ln.Addr().String(), Options: opt, Timeout: time.Minute}
			res, err := c.Sync(local)
			if err != nil {
				log.Fatalf("client %d: %v", i, err)
			}
			if !res.Complete || len(res.Difference) != drift {
				log.Fatalf("client %d: got %d differences, want %d", i, len(res.Difference), drift)
			}
			fmt.Printf("client %2d: caught up %3d IDs in %d rounds, %5d wire bytes\n",
				i, len(res.Difference), res.Rounds, res.WireBytes)
		}(i)
	}
	wg.Wait()

	// A catalog update lands while the server keeps running: publish 500
	// fresh IDs through the live handle (the sketch updates incrementally;
	// the next session rebuilds the shared view once and reuses it).
	fresh := make([]uint64, 0, 500)
	for len(fresh) < 500 {
		x := uint64(rng.Uint32() &^ 1) // even IDs are guaranteed novel
		if x != 0 {
			fresh = append(fresh, x)
		}
	}
	if _, err := catalog.Add(fresh...); err != nil {
		log.Fatal(err)
	}
	local, _ := driftedCopy(reference, 999)
	c := &pbs.Client{Addr: ln.Addr().String(), Options: opt, Timeout: time.Minute}
	res, err := c.Sync(local)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after live catalog update: client learned %d IDs (500 of them fresh)\n",
		len(res.Difference))

	if !srv.Shutdown(10 * time.Second) {
		log.Fatal("server: sessions still in flight after the drain timeout")
	}
	if err := <-serveErr; err != nil {
		log.Fatal(err)
	}
	fmt.Println("server: drained and stopped — one shared snapshot per epoch, zero per-session copies")
}

// driftedCopy returns the reference set minus a client-specific slice of
// IDs plus a few IDs the server has never seen, and the drift size.
func driftedCopy(reference []uint64, seed int64) ([]uint64, int) {
	rng := rand.New(rand.NewSource(seed))
	missing := 100 + rng.Intn(200)
	local := append([]uint64(nil), reference[missing:]...)
	extras := 1 + rng.Intn(8)
	for j := 0; j < extras; j++ {
		// Catalog IDs are all odd; odd-offset even IDs stay novel while
		// fitting the default 32-bit signature space.
		local = append(local, uint64(0xFFFF0000+seed*32+int64(j)*2))
	}
	return local, missing + extras
}
