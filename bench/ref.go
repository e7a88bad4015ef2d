package main

import (
	"slices"
	"time"
)

// The 2-core box this benchmark runs on slows down for minutes at a time,
// by up to 2x, through no doing of the program under test (a neighbour on
// the host; CPU time per sync rises with wall time, so it is not waiting).
// Ratios of two times taken in the same run hold through such an episode —
// sync_tail_x does — while raw times do not, and no bound can absorb a 2x
// swing. So every client interleaves its syncs with a reference kernel:
// fixed work of the same kind a sync spends its time on (hash-map build and
// scan over a set of the workload's size, hash partitioning, folding),
// written here, on stdlib only, so that no change to the library can move
// it. The run's time metrics are reported at reference speed: scaled by the
// workload's nominal kernel time over the kernel's median in this run.

// refShare is the share of a client's loop time the kernel may use.
const refShare = 32

// refKernel is one client's reference workload. It allocates nothing after
// construction, so it adds nothing to the run's allocation counters.
type refKernel struct {
	elems   []uint64
	index   map[uint64]struct{}
	scan    []uint64
	buckets [64]uint64
	sink    uint64

	spent   time.Duration
	samples []time.Duration
}

func newRefKernel(elems []uint64) *refKernel {
	return &refKernel{
		elems: slices.Clone(elems),
		index: make(map[uint64]struct{}, len(elems)),
		scan:  make([]uint64, 0, len(elems)),
	}
}

// run executes the kernel once and records its wall time.
func (k *refKernel) run() {
	start := time.Now()
	clear(k.index)
	for _, x := range k.elems {
		k.index[x] = struct{}{}
	}
	k.scan = k.scan[:0]
	for x := range k.index {
		k.scan = append(k.scan, x)
	}
	var fold uint64
	for _, x := range k.scan {
		h := x * 0x9e3779b97f4a7c15
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		k.buckets[h&63]++
		fold ^= h
	}
	k.sink += fold
	d := time.Since(start)
	k.spent += d
	k.samples = append(k.samples, d)
}

// due reports whether the kernel has had less than its share of the loop
// time so far.
func (k *refKernel) due(loopStart time.Time) bool {
	return k.spent*refShare < time.Since(loopStart)
}
