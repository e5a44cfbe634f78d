// Package sim is the deterministic parallel execution engine behind the
// Monte-Carlo evaluation suite. Every paper figure repeats independent
// trials over an independent (task, config, voltage/BER) grid; this package
// fans that work out over a bounded worker pool while keeping result
// collection strictly index-ordered, so aggregation downstream is
// bit-for-bit identical to a serial loop.
//
// Determinism contract: fn must derive all randomness from its index (the
// callers seed per-trial RNGs as pure functions of i) and must not touch
// shared mutable state. Under that contract MapWith returns the same slice
// for every worker count, and the only observable effect of Workers is
// wall-clock time.
//
// Flight is the package's other primitive: a singleflight that lets
// concurrent callers of one key share a single computation.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0) (one worker per schedulable core), and the count is
// clamped to n so short grids don't spawn idle goroutines.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MapWith runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns the results in index order.
// With workers == 1 it degenerates to a plain serial loop on the calling
// goroutine — no goroutines, no synchronization — so the serial path stays
// exactly the pre-engine code shape.
//
// Each worker also gets a scratch slot: newScratch runs once per worker
// goroutine (once total on the serial path), and fn receives that worker's
// scratch alongside the index. This is how per-episode buffer reuse
// composes with parallelism — workers × scratch instead of items × scratch
// — without any locking on the hot path. Callers with nothing to reuse
// pass a scratch of struct{}.
//
// The determinism contract extends to scratch: fn must fully reset every
// scratch field it reads before using it, so which worker (and therefore
// which scratch instance) serves an index cannot influence the result.
// Under that contract MapWith(n, w, ...) returns the same slice for every
// w.
func MapWith[T, S any](n, workers int, newScratch func() S, fn func(i int, scratch S) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = Workers(workers, n)
	if workers == 1 {
		scratch := newScratch()
		for i := 0; i < n; i++ {
			out[i] = fn(i, scratch)
		}
		return out
	}
	// Bounded fan-out: workers pull indices from a shared atomic counter
	// (cheaper and fairer than pre-chunking when per-item cost varies, as
	// episode lengths do by orders of magnitude). Each result lands at its
	// own index, so collection is ordered by construction and lock-free.
	//
	// A panic inside fn is captured and re-raised on the calling goroutine
	// after the pool drains — an unrecovered panic on a bare worker
	// goroutine would kill the whole process, which a serving daemon must
	// survive (its per-job recover can only see panics on the job
	// goroutine). Matches the serial path, where fn's panic reaches the
	// caller directly.
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicVal any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			scratch := newScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i, scratch)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return out
}

// Split divides a workers budget between an outer fan-out of n jobs and the
// nested fan-out inside each job, so two stacked MapWith calls stay within
// the budget instead of multiplying to workers^2: outer*inner <= workers,
// with the outer level saturated first (grid points are the coarser,
// better-balanced unit of work).
func Split(workers, n int) (outer, inner int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer = workers
	if n > 0 && outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = workers / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}
