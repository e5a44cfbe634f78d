package bridge

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/embodiedai/create/internal/model"
	"github.com/embodiedai/create/internal/quant"
)

// TestSeveritySingleflight drives cachedSeverity from many goroutines across
// a handful of keys and asserts each key's measurement runs exactly once
// while distinct keys are free to measure concurrently, and that the memo
// keeps serving the result after the flight is over. Run under -race this
// also locks the lock discipline of the memo.
func TestSeveritySingleflight(t *testing.T) {
	keys := []cacheKey{
		{planner: true, component: "sf-test-a", bits: quant.INT8},
		{planner: false, component: "sf-test-a", bits: quant.INT8},
		{planner: true, component: "sf-test-b", bits: quant.INT4},
		{planner: true, component: "sf-test-b", prot: Protection{AD: true}, bits: quant.INT8},
	}
	t.Cleanup(func() {
		severityMu.Lock()
		for _, k := range keys {
			delete(severities, k)
		}
		severityMu.Unlock()
	})

	counts := make([]atomic.Int64, len(keys))
	var start, done sync.WaitGroup
	const callersPerKey = 8
	release := make(chan struct{})
	for ki := range keys {
		for c := 0; c < callersPerKey; c++ {
			start.Add(1)
			done.Add(1)
			go func(ki int) {
				defer done.Done()
				start.Done()
				<-release
				s := cachedSeverity(keys[ki], func() Severity {
					counts[ki].Add(1)
					return Severity{Width: ki + 1}
				})
				if s.Width != ki+1 {
					t.Errorf("key %d: got width %d", ki, s.Width)
				}
			}(ki)
		}
	}
	start.Wait()
	close(release)
	done.Wait()

	for ki := range keys {
		s := cachedSeverity(keys[ki], func() Severity {
			counts[ki].Add(1)
			return Severity{}
		})
		if s.Width != ki+1 {
			t.Errorf("key %d after its flight: got width %d", ki, s.Width)
		}
		if n := counts[ki].Load(); n != 1 {
			t.Fatalf("key %d measured %d times, want 1", ki, n)
		}
	}
}

// TestSeveritySingleflightPanicRetries: a panicking measurement must
// propagate to the caller, leave nothing in the memo, and allow a later
// call to retry and succeed.
func TestSeveritySingleflightPanicRetries(t *testing.T) {
	key := cacheKey{planner: true, component: "sf-test-panic", bits: quant.INT8}
	t.Cleanup(func() {
		severityMu.Lock()
		delete(severities, key)
		severityMu.Unlock()
	})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		cachedSeverity(key, func() Severity { panic("measurement failed") })
	}()

	calls := 0
	s := cachedSeverity(key, func() Severity {
		calls++
		return Severity{Width: 7}
	})
	if calls != 1 || s.Width != 7 {
		t.Fatalf("retry after panic: calls=%d width=%d", calls, s.Width)
	}
}

// BenchmarkSeverityColdStart is the uncached measurement cost one severity
// key pays on first use — the unit of work the singleflight cold start
// parallelizes across keys. Bypasses the memo on purpose.
func BenchmarkSeverityColdStart(b *testing.B) {
	opt := DefaultMeasureOptions()
	for i := 0; i < b.N; i++ {
		MeasureControllerSeverity(model.DefaultControllerConfig(), Protection{}, opt)
	}
}
