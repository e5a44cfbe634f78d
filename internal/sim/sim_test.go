package sim

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want clamp to n=3", got)
	}
	if got := Workers(5, 0); got != 1 {
		t.Fatalf("Workers(5, 0) = %d, want floor of 1", got)
	}
}

// noScratch is the scratch factory of callers with nothing to reuse.
func noScratch() struct{} { return struct{}{} }

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		got := MapWith(100, workers, noScratch, func(i int, _ struct{}) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := MapWith(0, 4, noScratch, func(i int, _ struct{}) int { return i }); got != nil {
		t.Fatalf("MapWith(0, ...) = %v, want nil", got)
	}
}

// TestMapBoundedFanOut asserts the pool never runs more than the requested
// number of fn invocations concurrently.
func TestMapBoundedFanOut(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	MapWith(64, workers, noScratch, func(i int, _ struct{}) int {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		for k := 0; k < 1000; k++ {
			_ = k * k // keep the worker busy long enough to overlap
		}
		inFlight.Add(-1)
		return i
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent invocations, want <= %d", p, workers)
	}
}

func TestSplitStaysWithinBudget(t *testing.T) {
	cases := []struct {
		workers, n, outer, inner int
	}{
		{4, 32, 4, 1}, // wide grid: all budget to the outer level
		{64, 8, 8, 8}, // narrow grid: leftover budget goes inside
		{2, 32, 2, 1}, // tight budget: no nested parallelism
		{1, 10, 1, 1}, // serial stays serial at both levels
		{5, 2, 2, 2},  // uneven split rounds down, 2*2 <= 5
		{3, 0, 3, 1},  // degenerate grid: unclamped outer, no inner boost
	}
	for _, c := range cases {
		outer, inner := Split(c.workers, c.n)
		if outer != c.outer || inner != c.inner {
			t.Errorf("Split(%d, %d) = (%d, %d), want (%d, %d)",
				c.workers, c.n, outer, inner, c.outer, c.inner)
		}
		if c.workers >= 1 && outer*inner > c.workers {
			t.Errorf("Split(%d, %d): %d*%d exceeds the budget",
				c.workers, c.n, outer, inner)
		}
	}
	outer, inner := Split(0, 4)
	if outer < 1 || inner < 1 {
		t.Fatalf("Split(0, 4) = (%d, %d), want >= 1 each", outer, inner)
	}
}

// TestMapPropagatesWorkerPanic: a panic inside fn on a pool worker reaches
// MapWith's caller (where a serving daemon's per-job recover can handle it)
// instead of killing the process, and the pool still drains cleanly.
func TestMapPropagatesWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := func() (r any) {
			defer func() { r = recover() }()
			MapWith(16, workers, noScratch, func(i int, _ struct{}) int {
				if i == 5 {
					panic("boom")
				}
				return i
			})
			return nil
		}()
		if got != "boom" {
			t.Fatalf("workers=%d: panic %v did not propagate to the caller", workers, got)
		}
	}
}

func TestMapWithScratchPerWorker(t *testing.T) {
	// Each worker goroutine gets exactly one scratch: the number of
	// newScratch calls equals the (clamped) worker count, and every fn call
	// receives a non-nil slot.
	var made atomic.Int64
	newScratch := func() *[]int {
		made.Add(1)
		s := make([]int, 0, 8)
		return &s
	}
	n, workers := 64, 4
	out := MapWith(n, workers, newScratch, func(i int, s *[]int) int {
		if s == nil {
			t.Error("nil scratch")
		}
		*s = append((*s)[:0], i) // reset-then-use, per the contract
		return (*s)[0] * 2
	})
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
	if got := made.Load(); got != int64(workers) {
		t.Fatalf("newScratch ran %d times, want one per worker (%d)", got, workers)
	}
}

func TestMapWithSerialSingleScratch(t *testing.T) {
	made := 0
	out := MapWith(10, 1, func() int { made++; return made }, func(i, s int) int { return s })
	if made != 1 {
		t.Fatalf("serial path made %d scratches, want 1", made)
	}
	for _, v := range out {
		if v != 1 {
			t.Fatal("serial path must reuse the single scratch")
		}
	}
}

func TestMapWithDeterministicAcrossWorkerCounts(t *testing.T) {
	// The scratch contract: fn resets what it reads, so results are
	// independent of which worker served which index.
	run := func(workers int) []int {
		return MapWith(100, workers, func() *int { v := -1; return &v },
			func(i int, s *int) int {
				*s = i * i // full reset before use
				return *s
			})
	}
	want := run(1)
	for _, w := range []int{2, 3, 7, 0} {
		if got := run(w); !slices.Equal(got, want) {
			t.Fatalf("workers=%d diverged from serial", w)
		}
	}
}
