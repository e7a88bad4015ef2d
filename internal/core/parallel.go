package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PBS is "piecewise reconciliable": the n group pairs carry independent BCH
// sketches and decode with no cross-group dependency (§3 of the paper).
// This file exploits that property: per-scope encoding and decoding fan out
// over a bounded worker pool, while all wire serialization stays sequential
// in scope order so parallel and sequential runs produce byte-identical
// messages.

// forEachScope runs fn(worker, i) for every i in [0, n), fanning the
// indices out across at most workers goroutines. The worker argument is a
// dense goroutine index in [0, workers), letting callers keep per-worker
// scratch buffers without synchronization. workers <= 1 (or n <= 1) runs
// everything inline on the calling goroutine — the reference sequential
// path that parallel runs must match byte for byte.
//
// It returns the time the workers spent, summed across them: each times its
// whole share with one pair of clock reads, so a phase's CPU time costs the
// phase two reads a worker, not two a scope.
//
// fn must not touch shared state: each scope index must own its inputs and
// outputs (typically slots of a pre-sized slice).
func forEachScope(workers, n int, fn func(worker, i int)) time.Duration {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return time.Since(start)
	}
	var next, busy atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			start := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					busy.Add(int64(time.Since(start)))
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return time.Duration(busy.Load())
}

// resized returns s with length n, reusing its backing array when that is
// large enough. The contents are unspecified unless the array is new.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scopeErrors collects at most one error per scope index so the lowest
// indexed failure can be reported deterministically regardless of goroutine
// scheduling.
type scopeErrors struct {
	errs []error
}

// reset sizes the collector for n scopes, all clear, reusing its storage.
func (e *scopeErrors) reset(n int) {
	e.errs = resized(e.errs, n)
	clear(e.errs)
}

// set records err for scope i. Each index is owned by exactly one worker,
// so no locking is needed.
func (e *scopeErrors) set(i int, err error) { e.errs[i] = err }

// first returns the error of the lowest failed scope, or nil.
func (e *scopeErrors) first() error {
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// minFanOutWork is the least work, counted in elements folded and bins
// encoded (a few nanoseconds each), that a phase fans out for under
// automatic Parallelism. Waking other processors and waiting on them costs
// a phase tens of microseconds and much of its predictability; a phase
// with less than that to share runs on the calling goroutine, which also
// leaves the other processors to the other sessions of a busy server.
const minFanOutWork = 1 << 15

// workersFor resolves the plan's Parallelism knob for a phase with the
// given amount of work: values > 0 are taken literally (1 = the sequential
// reference path), 0 or negative selects GOMAXPROCS when the phase is
// large enough to repay fanning out.
func (p Plan) workersFor(work int) int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	if work < minFanOutWork {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}
