package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitJoined is called from inside the owner's fn: it blocks until n other
// callers have joined the in-flight call for key, so the owner cannot finish
// before every waiter is parked on it. It reports false if they have not all
// joined within a generous deadline (a Flight that lets callers run fn
// instead of joining never gets there).
func awaitJoined[K comparable, V any](g *Flight[K, V], key K, n int) bool {
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		joined := g.m[key].dups
		g.mu.Unlock()
		if joined == n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
}

// TestFlightCoalescesConcurrentMisses: when parallel sweeps miss the same
// key simultaneously, exactly one computes and every caller shares its value.
func TestFlightCoalescesConcurrentMisses(t *testing.T) {
	var g Flight[string, float64]
	const waiters = 16
	var computes atomic.Int64
	inFlight := make(chan struct{})
	joined := make(chan bool, 1)
	go func() {
		g.Do("point", func() float64 {
			computes.Add(1)
			close(inFlight)
			joined <- awaitJoined(&g, "point", waiters)
			return 0.75
		})
	}()
	<-inFlight

	results := make([]float64, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.Do("point", func() float64 {
				computes.Add(1)
				return -1
			})
		}(i)
	}
	if !<-joined {
		t.Fatalf("not all %d waiters joined the in-flight call", waiters)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, r := range results {
		if r != 0.75 {
			t.Fatalf("waiter %d got %v, want the owner's 0.75", i, r)
		}
	}

	// Sequential calls after completion compute again: results live in
	// the caller's memo, not the flight.
	g.Do("point", func() float64 { computes.Add(1); return 0 })
	if computes.Load() != 2 {
		t.Fatal("flight retained a completed call")
	}
}

// TestFlightPanicDoesNotWedge: a panicking fn releases the slot and
// re-raises in the owner and every waiter — the key stays usable instead of
// blocking all future calls forever.
func TestFlightPanicDoesNotWedge(t *testing.T) {
	var g Flight[string, int]
	recovered := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}

	const waiters = 4
	inFlight := make(chan struct{})
	joined := make(chan bool, 1)
	ownerPanic := make(chan any, 1)
	go func() {
		ownerPanic <- recovered(func() {
			g.Do("p", func() int {
				close(inFlight)
				joined <- awaitJoined(&g, "p", waiters)
				panic("episode exploded")
			})
		})
	}()
	<-inFlight

	panics := make([]any, waiters)
	var waiterComputes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			panics[i] = recovered(func() {
				g.Do("p", func() int { waiterComputes.Add(1); return 0 })
			})
		}(i)
	}
	if !<-joined {
		t.Fatalf("not all %d waiters joined the in-flight call", waiters)
	}
	wg.Wait()
	if r := <-ownerPanic; r != "episode exploded" {
		t.Fatalf("owner saw %v, want its own panic", r)
	}
	if n := waiterComputes.Load(); n != 0 {
		t.Fatalf("%d waiters ran their own fn instead of sharing the owner's call", n)
	}
	for i, r := range panics {
		if r != "episode exploded" {
			t.Fatalf("waiter %d saw %v, want the owner's panic", i, r)
		}
	}

	// The slot is free: the next caller computes normally.
	if v := g.Do("p", func() int { return 1 }); v != 1 {
		t.Fatal("flight slot wedged after a panic")
	}
}
