package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// churn hands out write batches that keep a set's size: each batch removes
// elements the set holds and adds as many it has never held.
type churn struct {
	rng  *rand.Rand
	live []uint64
	seen map[uint64]bool
}

// newChurn returns a churn over a fresh set of size elements.
func newChurn(size int, seed uint64) *churn {
	c := &churn{rng: rand.New(rand.NewPCG(seed, seed)), seen: map[uint64]bool{0: true}}
	for len(c.live) < size {
		c.live = append(c.live, c.fresh())
	}
	return c
}

// fresh returns an element the set has never held.
func (c *churn) fresh() uint64 {
	for {
		if x := uint64(c.rng.Uint32()); !c.seen[x] {
			c.seen[x] = true
			return x
		}
	}
}

// next returns a batch of writes/2 adds and writes/2 removes and records it.
func (c *churn) next(writes int) (add, remove []uint64) {
	for range writes / 2 {
		i, last := c.rng.IntN(len(c.live)), len(c.live)-1
		remove = append(remove, c.live[i])
		c.live[i] = c.live[last]
		c.live = c.live[:last]
		add = append(add, c.fresh())
	}
	c.live = append(c.live, add...)
	return add, remove
}

// snapshot returns a snapshot of the set as it stands.
func (c *churn) snapshot(t testing.TB, cfg Config) *Snapshot {
	t.Helper()
	snap, err := NewSnapshot(c.live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestApplyCostsTheBatch holds Apply to the batch: a successor inherits
// its predecessor's cached shapes without copying what they are behind by,
// so one Apply costs as many allocations and bytes whether the shapes are
// a batch or |S|/lagFraction writes behind, and whether there is one shape
// or maxCachedShapes. No session reads a shape while the batches land.
func TestApplyCostsTheBatch(t *testing.T) {
	const size, writes, runs = 16000, 16, 10
	type cost struct{ allocs, bytes float64 }
	// measure chains 2·runs+1 batches onto *snap and returns the cost of one.
	measure := func(snap **Snapshot, c *churn) cost {
		batches := make([][2][]uint64, 2*runs+1)
		for i := range batches {
			batches[i][0], batches[i][1] = c.next(writes)
		}
		apply := func() {
			*snap = (*snap).Apply(batches[0][0], batches[0][1])
			batches = batches[1:]
		}
		allocs := testing.AllocsPerRun(runs, apply)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			apply()
		}
		runtime.ReadMemStats(&after)
		return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs}
	}
	var base cost
	for _, shapes := range []int{1, maxCachedShapes} {
		c := newChurn(size, 54)
		snap := c.snapshot(t, Config{})
		for g := range shapes {
			snap.partitionFor(Plan{M: 6, Groups: 20 + g})
		}
		early := measure(&snap, c)
		// Let the shapes fall behind to within a few batches of the
		// |S|/lagFraction drop, then measure again.
		for range (size/lagFraction - 2*writes*(2*runs+1)) / writes {
			snap = snap.Apply(c.next(writes))
		}
		late := measure(&snap, c)
		if behind := snap.log.size; behind > size/lagFraction || behind < size/lagFraction-writes*4 {
			t.Fatalf("shapes=%d: the shapes are %d writes behind, want just short of %d", shapes, behind, size/lagFraction)
		}
		if len(snap.shapes) != shapes {
			t.Fatalf("shapes=%d: the last successor inherited %d shapes", shapes, len(snap.shapes))
		}
		if shapes == 1 {
			base = early
		}
		for _, got := range []struct {
			name string
			cost
		}{{"early", early}, {"late", late}} {
			t.Logf("shapes=%d %s: %.0f allocs, %.0f B per Apply", shapes, got.name, got.allocs, got.bytes)
			// 64 B of slack for what the runtime may allocate meanwhile.
			if got.allocs > base.allocs || got.bytes > base.bytes+64 {
				t.Errorf("shapes=%d, %s: an Apply costs %.0f allocs and %.0f B, one a batch behind a single shape %.0f allocs and %.0f B",
					shapes, got.name, got.allocs, got.bytes, base.allocs, base.bytes)
			}
		}
	}
}

// TestShapeCatchUpAcrossRebase leaves cached shapes unread while their
// backlog crosses a re-base, which composes it because the new log does
// not reach the old one's entries, and up to and past the |S|/lagFraction
// drop, which counts it off the log. Sessions race to catch the shapes up
// across the re-base. Each shape read afterwards must describe exactly what
// a fresh build of the same elements does: checksums, groups, and rows with
// their lags on top, its lag lists within their share.
func TestShapeCatchUpAcrossRebase(t *testing.T) {
	const size, writes = 4000, 100
	const seed = 0xCA7C
	cfg := Config{Seed: seed}
	plans := applyShapes(seed)
	c := newChurn(size, 55)
	snap := c.snapshot(t, cfg)
	readAll := func() {
		for _, plan := range plans {
			snap.partitionFor(plan)
		}
	}
	assertFresh := func(stage string, snap *Snapshot) {
		t.Helper()
		want := c.snapshot(t, cfg)
		for _, plan := range plans {
			got := snap.partitionFor(plan)
			assertSamePartition(t, plan, got, want, true)
			bases := got.cut.bases()
			for g, slot := range got.groups {
				if !slices.IsSorted(slot.lag) || len(slot.lag) > len(bases[g])/lagFraction+lagFraction {
					t.Fatalf("%s: G=%d: group %d holds a lag list of %d over a base of %d", stage, plan.Groups, g, len(slot.lag), len(bases[g]))
				}
			}
		}
	}

	// Read every shape every fourth batch up to 1,700 writes, so each is
	// current 400 writes short of the re-base at |S|/rebaseFraction.
	readAll()
	for i := 1; i <= 17; i++ {
		snap = snap.Apply(c.next(writes))
		if i%4 == 0 || i == 17 {
			readAll()
		}
	}
	mark := snap.Mark()
	// Each group count's table, at the degree it was last read at.
	type kept struct {
		plan  Plan
		table *foldTable
	}
	tables := map[int]kept{}
	for _, plan := range plans {
		tables[plan.Groups] = kept{plan, snap.partitionFor(plan).table}
	}
	// Four batches re-base at 2,100 writes, and a fifth lands after it.
	for range 5 {
		snap = snap.Apply(c.next(writes))
	}
	if _, _, ok := snap.Since(mark); ok {
		t.Fatal("no re-base came between the last read and the catch-up")
	}
	// The re-base composed each shape's 400 writes, net of those that
	// cancel, and the drop counts them with the 100 logged since.
	lagging := -1
	for _, sh := range snap.shapes {
		if sh.behind.len() == 0 || sh.behind.len() > 4*writes || sh.lagging(snap.log) != sh.behind.len()+writes {
			t.Fatalf("G=%d: %d writes composed at the re-base, %d behind in all", len(sh.groups), sh.behind.len(), sh.lagging(snap.log))
		}
		lagging = sh.lagging(snap.log)
	}
	if len(snap.shapes) != len(tables) {
		t.Fatalf("%d of %d shapes survived the re-base", len(snap.shapes), len(tables))
	}
	// Adds up to |S|/lagFraction writes behind keep every shape; one more
	// drops them all.
	adds := func(n int) []uint64 {
		add := make([]uint64, n)
		for i := range add {
			add[i] = c.fresh()
		}
		return add
	}
	if kept := snap.Apply(adds(size/lagFraction-lagging), nil); len(kept.shapes) != len(tables) {
		t.Fatalf("%d of %d shapes |S|/lagFraction writes behind were inherited", len(kept.shapes), len(tables))
	}
	if over := snap.Apply(adds(size/lagFraction-lagging+1), nil); len(over.shapes) != 0 {
		t.Fatalf("%d shapes over |S|/lagFraction writes behind were inherited", len(over.shapes))
	}
	// Sessions race to catch each shape up, at the degree its table was
	// kept at; whichever result keeps the slot, a table kept at its degree
	// is replaced only by a copy whose rewritten groups' rows it rebased.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range tables {
				snap.partitionFor(k.plan)
			}
		}()
	}
	wg.Wait()
	rebased := 0
	for _, k := range tables {
		if got := snap.partitionFor(k.plan).table; k.table != nil && got != nil && got != k.table {
			rebased++
		}
	}
	if rebased == 0 {
		t.Fatal("the catch-up rebased no table row: the test exercises nothing")
	}
	assertFresh("across the re-base", snap)

	// Past the drop, without a re-base: every shape is folded afresh.
	for range size/lagFraction/writes + 1 {
		snap = snap.Apply(c.next(writes))
	}
	if len(snap.shapes) != 0 {
		t.Fatalf("%d shapes over |S|/lagFraction writes behind were inherited", len(snap.shapes))
	}
	assertFresh("past the drop", snap)
}

// BenchmarkSnapshotApply is bulk_diff's write batch: 250 writes, half adds
// and half removes, applied to a 100k-element snapshot that caches one or
// maxCachedShapes shapes (G = 1,400 and up, no table) no session reads.
// Every 40 batches the chain starts again from the snapshot the shapes
// were folded on, so they fall up to 10,000 writes behind, short of the
// |S|/lagFraction drop, and no re-base comes.
func BenchmarkSnapshotApply(b *testing.B) {
	for _, shapes := range []int{1, maxCachedShapes} {
		b.Run(fmt.Sprintf("shapes=%d", shapes), func(b *testing.B) {
			c := newChurn(100000, 56)
			snap := c.snapshot(b, Config{})
			for g := range shapes {
				snap.partitionFor(Plan{M: 7, Groups: 1400 + g})
			}
			batches := make([][2][]uint64, 40)
			for i := range batches {
				batches[i][0], batches[i][1] = c.next(250)
			}
			cur := snap
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if i%len(batches) == 0 {
					cur = snap
				}
				batch := batches[i%len(batches)]
				cur = cur.Apply(batch[0], batch[1])
			}
		})
	}
}
