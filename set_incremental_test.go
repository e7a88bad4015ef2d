package pbs

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pbs/internal/workload"
)

// teeSync runs a.Sync against b.Respond over a pipe and returns the result
// with everything each side wrote, as the initiator's end recorded it.
func teeSync(t testing.TB, a, b *Set, opts ...Option) (res *Result, sent, received []byte) {
	t.Helper()
	ca, cb := net.Pipe()
	tap := newWireTap(ca)
	respErr := make(chan error, 1)
	go func() {
		defer cb.Close()
		respErr <- b.Respond(context.Background(), cb)
	}()
	res, err := a.Sync(context.Background(), tap, opts...)
	ca.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-respErr; err != nil {
		t.Fatal(err)
	}
	received, sent = tap.bytes()
	return res, sent, received
}

// TestSetJournaledViewWireIdentical mutates a warm Set through every path
// the journal has — plain batches, an element added and removed again
// between two syncs (and the reverse), writes that empty what the last sync
// learned, and a burst past the journal bound, which applies the journal
// at once — and after each requires its sync to be byte-identical, in both
// directions, to the sync of a Set built from scratch out of the same
// elements, for a speculation the responder answers and one it declines
// (re-planning from d̂).
func TestSetJournaledViewWireIdentical(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 12000, D: 60, Seed: 91})
	rng := rand.New(rand.NewPCG(91, 92))
	opt := []Option{WithSeed(93), WithAdaptive(false)}
	warm, err := NewSet(p.A, opt...)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewSet(p.B, opt...)
	if err != nil {
		t.Fatal(err)
	}
	inB := make(map[uint64]bool, len(p.B))
	for _, x := range p.B {
		inB[x] = true
	}
	fresh := func() uint64 {
		for {
			x := uint64(rng.Uint32())
			if x != 0 && !inB[x] && !warm.Contains(x) {
				return x
			}
		}
	}

	check := func(step string) {
		t.Helper()
		for _, knownD := range []int{150, 1} {
			// Both handles must speculate alike: a fixed known d.
			callOpts := []Option{WithKnownD(knownD)}
			scratch, err := NewSet(warm.Elements(), opt...)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSent, gotRecv := teeSync(t, warm, peer, callOpts...)
			want, wantSent, wantRecv := teeSync(t, scratch, peer, callOpts...)
			if !bytes.Equal(gotSent, wantSent) || !bytes.Equal(gotRecv, wantRecv) {
				t.Fatalf("%s (KnownD=%d): the journaled view syncs differently from a fresh build (%d/%d vs %d/%d bytes)",
					step, knownD, len(gotSent), len(gotRecv), len(wantSent), len(wantRecv))
			}
			if !got.Complete || !want.Complete {
				t.Fatalf("%s (KnownD=%d): incomplete sync", step, knownD)
			}
			assertSameSet(t, got.Difference, want.Difference)
		}
	}

	check("first view")

	// Plain batches.
	for i := 0; i < 5; i++ {
		var add []uint64
		for j := 0; j < 20; j++ {
			add = append(add, fresh())
		}
		if _, err := warm.Add(add...); err != nil {
			t.Fatal(err)
		}
		warm.Remove(p.A[i*10 : i*10+10]...)
		check("plain batch")
	}

	// Added then removed, and removed then added, inside one journal: both
	// must cancel to nothing, on top of one write that does not.
	x, y := fresh(), p.A[5000]
	warm.Add(x)
	warm.Remove(x)
	warm.Remove(y)
	warm.Add(y)
	warm.Add(x)
	warm.Remove(x)
	warm.Add(fresh())
	check("cancelling writes")

	// A journal that cancels completely leaves the view as it was.
	before, _ := warm.view()
	warm.Remove(y)
	warm.Add(y)
	if after, _ := warm.view(); after != before {
		t.Fatal("a journal with no net effect produced a new view")
	}

	// Apply what the peer has: the difference empties out.
	res, _, _ := teeSync(t, warm, peer)
	for _, d := range res.Difference {
		if warm.Contains(d) {
			warm.Remove(d)
		} else {
			warm.Add(d)
		}
	}
	check("difference applied")

	// A burst past the journal bound: the write that crosses it applies the
	// journal to the view, which the set keeps, and empties the journal.
	before, _ = warm.view()
	var burst []uint64
	for applied := false; !applied; {
		if len(burst) > 2*len(p.A)/journalFraction {
			t.Fatal("a burst past the journal bound did not apply the journal")
		}
		burst = append(burst, fresh())
		warm.Add(burst[len(burst)-1])
		warm.mu.RLock()
		applied = len(warm.journal) == 0
		if applied && (warm.shared == nil || warm.shared == before) {
			t.Fatal("a burst past the journal bound did not keep a view with the journal applied")
		}
		warm.mu.RUnlock()
	}
	warm.Remove(burst[:len(burst)-7]...)
	check("journal overflow")
}

// TestSetFirstSketchFromSnapshot: a handle's first metadata is taken from
// its view's snapshot, the sketch in bulk, split across goroutines at this
// size. Taken after writes, its count, sketch and digest must equal a fresh
// build of the elements, and later writes — a burst past the journal bound
// among them — must keep them so, in the handle and in its view.
func TestSetFirstSketchFromSnapshot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 15000, D: 40, Seed: 61})
	s, err := NewSet(p.A, WithSeed(62))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(61, 62))
	write := func(s *Set, n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Add(uint64(rng.Uint32() | 1)); err != nil {
				t.Fatal(err)
			}
			s.Remove(p.A[rng.IntN(len(p.A))])
		}
	}
	requireMeta := func(s *Set, when string) {
		t.Helper()
		v, err := s.view()
		if err != nil {
			t.Fatal(err)
		}
		elems := s.Elements()
		want := metaFor(s.tow, s.cfg.opt.Seed, elems)
		if ys := s.tow.Sketch(elems); !slices.Equal(want.sketch, ys) {
			t.Fatalf("%s: metaFor's sketch differs from a fresh sketch", when)
		}
		for _, got := range []setMeta{s.meta, v.meta} {
			if got.count != len(elems) || !slices.Equal(got.sketch, want.sketch) || got.digest != want.digest {
				t.Fatalf("%s: the metadata (count %d) differs from a fresh build of the elements (count %d)", when, got.count, len(elems))
			}
		}
	}

	write(s, 30)
	requireMeta(s, "first sketch")
	write(s, 30)
	requireMeta(s, "after writes")
	write(s, len(p.A)/journalFraction+64)
	requireMeta(s, "burst past the journal bound")

	// One write before the first view, and none after.
	one, err := NewSet(p.A, WithSeed(62))
	if err != nil {
		t.Fatal(err)
	}
	one.Remove(p.A[0])
	requireMeta(one, "a write before the first view")
}

// TestSetViewsStableUnderWrites hammers a Set with writes while sessions run
// on it, as initiator and as responder, each on the view current when it
// started. Writes only touch a pool disjoint from both base sets, so
// whatever view a session got, it must learn the fixed difference plus some
// subset of the pool — a view changing under a session, or a shared table
// row written by another, shows up as a wrong difference or, under -race,
// as a report.
func TestSetViewsStableUnderWrites(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 20000, D: 40, Seed: 17})
	inAny := make(map[uint64]bool, 2*len(p.A))
	for _, x := range p.A {
		inAny[x] = true
	}
	for _, x := range p.B {
		inAny[x] = true
	}
	rng := rand.New(rand.NewPCG(5, 6))
	pool := map[uint64]bool{}
	var poolElems []uint64
	for len(poolElems) < 300 {
		if x := uint64(rng.Uint32()); x != 0 && !inAny[x] && !pool[x] {
			pool[x] = true
			poolElems = append(poolElems, x)
		}
	}
	opts := []Option{WithSeed(18), WithKnownD(400)}
	a, err := NewSet(p.A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSet(p.B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	base := map[uint64]bool{}
	for _, x := range p.Diff {
		base[x] = true
	}
	verify := func(res *Result) {
		if !res.Complete {
			t.Error("incomplete session")
			return
		}
		n := 0
		for _, x := range res.Difference {
			switch {
			case base[x]:
				n++
			case !pool[x]:
				t.Errorf("learned %#x, which is in neither the fixed difference nor the write pool", x)
				return
			}
		}
		if n != len(base) {
			t.Errorf("learned %d of the %d fixed differences", n, len(base))
		}
	}

	stop := make(chan struct{})
	var writers, sessions sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		wr := rand.New(rand.NewPCG(8, 9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			x := poolElems[wr.IntN(len(poolElems))]
			if wr.IntN(2) == 0 {
				a.Add(x)
			} else {
				a.Remove(x)
			}
			runtime.Gosched()
		}
	}()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		sessions.Add(1)
		go func(i int) {
			defer sessions.Done()
			for j := 0; j < 15; j++ {
				var res *Result
				var err error
				switch (i + j) % 3 {
				case 0: // a is the initiator, in process
					res, err = a.Reconcile(ctx, b)
				case 1: // a is the responder
					res, err = b.Reconcile(ctx, a)
				default: // a is the initiator, over the wire
					ca, cb := net.Pipe()
					done := make(chan error, 1)
					go func() { done <- b.Respond(ctx, cb) }()
					res, err = a.Sync(ctx, ca)
					ca.Close()
					if rerr := <-done; err == nil {
						err = rerr
					}
					cb.Close()
				}
				if err != nil {
					t.Error(err)
					return
				}
				verify(res)
			}
		}(i)
	}
	sessions.Wait()
	close(stop)
	writers.Wait()
}

// TestWarmSyncAllocationBudget is ROADMAP 2(a)'s budget as an assertion,
// over a pipe, both endpoints together.
func TestWarmSyncAllocationBudget(t *testing.T) {
	// |A| = 100k, d = 100, 50 writes a sync (the benchmark read 6.4 MB per
	// sync on this shape before the view became incremental). The budget
	// is the median measured once a write stopped costing the initiator's
	// round-one table a row copy, 28,584 B, plus 8 KB; with the copies the
	// median read 44,144 B (five runs each, go1.24, linux/amd64). Under
	// the race detector sync.Pool drops a quarter of what it is handed and
	// the median reads 70–100 KB, so there the budget stays at 1 MB.
	// The same shape and budget hold under StrongVerify: both sets keep
	// their digests under writes, and the initiator finds each learned
	// element's side in the scope that verified it, so the check hashes the
	// difference, not the set (re-hashing and flattening 100k elements read
	// some 800 KB a sync).
	for _, tc := range []struct {
		name   string
		strong bool
	}{{"100k", false}, {"100k-strong", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("builds two 100k-element sets")
			}
			p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 100000, D: 100, Seed: 23})
			a, b := warmSetPair(t, p, 24)
			// 50 effective writes per sync that keep |A△B| at 125.
			churn := steadyChurn(t, a, p, 25)
			costs := warmSyncAllocs(t, a, b, func(i int) int {
				churn(i)
				return len(p.Diff) + 25
			}, WithStrongVerify(tc.strong))
			budget := uint64(28584 + 8<<10)
			if raceDetector {
				budget = 1 << 20
			}
			if median := costs[len(costs)/2]; median > budget {
				t.Fatalf("a warm sync after 50 writes allocated %d B (median of %v), budget %d B", median, costs, budget)
			}
		})
	}
	// warm_small's shape: |A| = 2k, d = 20, 5 writes a sync. The responder's
	// set is never written, so from its second session on it reads a
	// round-one table (G = 35, m = 6: 2,240 words, over |B|) it keeps; the
	// written initiator keeps one too from its second sync on, carried
	// across its writes, and must not build it again every sync (~18 KB).
	// The budget is the median measured before the responder kept that
	// table, 14,560 B, plus 8 KB; with both tables kept the best of five
	// reads 14,440–14,496 B (go1.24, linux/amd64). It
	// is held to the best of the five syncs, whose writes differ only in
	// direction: under the race detector sync.Pool drops a quarter of what
	// it is handed, and the median there reads up to 23 KB.
	t.Run("2k", func(t *testing.T) {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 20, Seed: 25})
		a, b := warmSetPair(t, p, 26)
		var common []uint64
		for _, x := range p.B {
			if a.Contains(x) {
				common = append(common, x)
			}
		}
		// Five elements of A∩B leave A on one sync and come back on the next.
		costs := warmSyncAllocs(t, a, b, func(i int) int {
			five := common[i/2*5:][:5]
			if i%2 == 0 {
				a.Remove(five...)
				return len(p.Diff) + 5
			}
			if _, err := a.Add(five...); err != nil {
				t.Fatal(err)
			}
			return len(p.Diff)
		})
		const budget = 14560 + 8<<10
		if best := costs[0]; best > budget {
			t.Fatalf("a warm sync after 5 writes allocated %d B (best of %v), budget %d B", best, costs, budget)
		}
	})
}

// warmSetPair builds the initiator and responder Sets of a pair.
func warmSetPair(t *testing.T, p *workload.Pair, seed uint64) (a, b *Set) {
	t.Helper()
	a, err := NewSet(p.A, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = NewSet(p.B, WithSeed(seed)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// warmSyncAllocs syncs a against b under opts after each batch of writes
// churn(i) makes (it returns the |A△B| the sync must learn) and reports the
// bytes allocated by each of five syncs, ascending, after three that warm
// views, sketches, shapes, pools and the learned prior.
func warmSyncAllocs(t *testing.T, a, b *Set, churn func(i int) int, opts ...Option) []uint64 {
	t.Helper()
	const warm, runs = 3, 5
	var costs []uint64
	var before, after runtime.MemStats
	for i := 0; i < warm+runs; i++ {
		want := churn(i)
		runtime.ReadMemStats(&before)
		res, _, _ := teeSync(t, a, b, opts...)
		runtime.ReadMemStats(&after)
		if !res.Complete || len(res.Difference) != want {
			t.Fatalf("bad sync: complete=%v |diff|=%d, want %d", res.Complete, len(res.Difference), want)
		}
		if i >= warm {
			costs = append(costs, after.TotalAlloc-before.TotalAlloc)
		}
	}
	slices.Sort(costs)
	return costs
}
