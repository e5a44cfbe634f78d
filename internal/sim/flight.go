package sim

import "sync"

// Flight is a minimal singleflight: concurrent Do calls for one key run fn
// once and share its result. It only deduplicates work in progress — a
// completed call leaves nothing behind, so callers that want results to
// outlive the call keep their own memo in front of it (the bridge severity
// map, the experiments cache store). The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done     chan struct{}
	val      V
	panicked any // fn's panic value, re-raised in every caller
	dups     int // callers that joined instead of running fn
}

// Do runs fn for key exactly once among concurrent callers; latecomers block
// until the owner finishes and share its result. Sequential calls each run
// fn. A panicking fn is cleaned up — the slot is released and the done
// channel closed, so the key never wedges — and the panic is re-raised in
// the owner and every waiter.
func (g *Flight[K, V]) Do(key K, fn func() V) V {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.val
	}
	if g.m == nil {
		g.m = make(map[K]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.panicked = r
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if c.panicked != nil {
			panic(c.panicked)
		}
	}()
	c.val = fn()
	return c.val
}
