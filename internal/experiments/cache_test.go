package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/embodiedai/create/internal/cache"
)

// cachedOptions keeps trials small: these tests assert reuse accounting and
// replay identity, not statistical quality.
func cachedOptions() Options { return Options{Trials: 4, Seed: 2026} }

// TestFig16CacheComputesEachPointOnce is the acceptance gate for the reuse
// layer: across the whole fig16 workload (reliability at 0.75 V plus the
// per-task voltage descent), each unique (task, config, voltage, trials,
// seed) point is computed exactly once, and the overlap between the two
// sweeps — the descent re-evaluates the supplies reliability already ran —
// is served from cache.
func TestFig16CacheComputesEachPointOnce(t *testing.T) {
	e := NewEnv()
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	e.Cache = store
	opt := cachedOptions()

	rel := Fig16Reliability(e, opt)
	eff := Fig16Efficiency(e, opt)

	if got, want := store.Misses(), int64(store.Len()); got != want {
		t.Fatalf("%d misses for %d unique points: some point was computed more than once", got, want)
	}
	// The efficiency sweep's clean baseline runs at the nominal supply,
	// which is also each descent's first grid voltage — so cross-sweep
	// hits are guaranteed, beyond whatever depth the descents reach.
	if store.Hits() == 0 {
		t.Fatal("Fig16Reliability and Fig16Efficiency share runOverall points; expected cache hits")
	}

	// A replay is pure hits and reproduces identical rows.
	misses := store.Misses()
	rel2 := Fig16Reliability(e, opt)
	eff2 := Fig16Efficiency(e, opt)
	if store.Misses() != misses {
		t.Fatalf("replay recomputed %d points", store.Misses()-misses)
	}
	if !reflect.DeepEqual(rel, rel2) {
		t.Fatal("cached replay of Fig16Reliability diverged")
	}
	if !reflect.DeepEqual(eff, eff2) {
		t.Fatal("cached replay of Fig16Efficiency diverged")
	}
}

// TestCachedSweepsMatchUncached: attaching a cache must never change a
// result — first runs go through the compute path and replays through the
// decode path, and both must equal the cache-free rows.
func TestCachedSweepsMatchUncached(t *testing.T) {
	opt := cachedOptions()
	plain := NewEnv()
	cached := NewEnv()
	store, _ := cache.New(t.TempDir())
	cached.Cache = store

	if a, b := Fig13WR(plain, opt), Fig13WR(cached, opt); !reflect.DeepEqual(a, b) {
		t.Errorf("Fig13WR diverged with a cache attached:\n%+v\n%+v", a, b)
	}
	if a, b := Fig19ErrorModels(plain, opt), Fig19ErrorModels(cached, opt); !reflect.DeepEqual(a, b) {
		t.Errorf("Fig19ErrorModels diverged with a cache attached:\n%+v\n%+v", a, b)
	}
	if a, b := Fig15Interval(plain, opt), Fig15Interval(cached, opt); !reflect.DeepEqual(a, b) {
		t.Errorf("Fig15Interval diverged with a cache attached:\n%+v\n%+v", a, b)
	}
}

// TestBespokeSweepsCached: the cross-platform abstract episodes and the
// phase-targeted injection rows — the Monte-Carlo loops that live outside
// runTask — are served through the content-addressed cache like any grid
// point: attaching a cache never changes a row, and a replay recomputes
// nothing.
func TestBespokeSweepsCached(t *testing.T) {
	opt := cachedOptions()
	plain := NewEnv()
	wantCross := Fig17CrossPlatform(plain, opt)
	wantPhase := Fig7PhaseInjection(plain, opt, Fig7InjectionQ)

	cached := NewEnv()
	store, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached.Cache = store
	if got := Fig17CrossPlatform(cached, opt); !reflect.DeepEqual(wantCross, got) {
		t.Fatalf("Fig17CrossPlatform diverged with a cache attached:\n%+v\n%+v", wantCross, got)
	}
	if got := Fig7PhaseInjection(cached, opt, Fig7InjectionQ); !reflect.DeepEqual(wantPhase, got) {
		t.Fatalf("Fig7PhaseInjection diverged with a cache attached:\n%+v\n%+v", wantPhase, got)
	}

	misses := store.Misses()
	if got := Fig17CrossPlatform(cached, opt); !reflect.DeepEqual(wantCross, got) {
		t.Fatal("cached replay of Fig17CrossPlatform diverged")
	}
	if got := Fig7PhaseInjection(cached, opt, Fig7InjectionQ); !reflect.DeepEqual(wantPhase, got) {
		t.Fatal("cached replay of Fig7PhaseInjection diverged")
	}
	if store.Misses() != misses {
		t.Fatalf("replay recomputed %d bespoke points", store.Misses()-misses)
	}

	// A cold store over the same directory decodes every entry from disk —
	// the JSON round trip must be exact for the abstract-episode summaries
	// (success rates and voltage histograms) too.
	colder := NewEnv()
	coldStore, err := cache.New(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	colder.Cache = coldStore
	if got := Fig17CrossPlatform(colder, opt); !reflect.DeepEqual(wantCross, got) {
		t.Fatal("disk replay of Fig17CrossPlatform diverged")
	}
	if coldStore.Misses() != 0 {
		t.Fatalf("disk replay recomputed %d points", coldStore.Misses())
	}
}

// TestCachedComputeSharedAcrossSweeps drives the whole stack: two
// goroutines running overlapping sweeps against one Env compute each shared
// point once (misses may double-count — both callers legitimately missed —
// but Monte-Carlo work, measured by resident points vs flight computes,
// does not duplicate).
func TestCachedComputeSharedAcrossSweeps(t *testing.T) {
	e := NewEnv()
	store, _ := cache.New("")
	e.Cache = store
	opt := cachedOptions()

	var wg sync.WaitGroup
	outs := make([][]ResiliencePoint, 2)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = Fig5Controller(e, opt) // identical grids, racing
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatal("racing identical sweeps diverged")
	}
	// Every point resident exactly once; the cache-free reference matches.
	want := Fig5Controller(NewEnv(), opt)
	if !reflect.DeepEqual(outs[0], want) {
		t.Fatal("raced sweep diverged from the cache-free reference")
	}
}

// TestShardedRunsMergeToUnshardedResults is the library-level determinism
// gate behind the CI matrix: three sharded runs, each persisting only its
// own grid points, merge into a cache whose replay (a) recomputes nothing
// and (b) is indistinguishable from a cache-free unsharded run.
func TestShardedRunsMergeToUnshardedResults(t *testing.T) {
	base := t.TempDir()
	opt := cachedOptions()
	const numShards = 3

	shardDirs := make([]string, numShards)
	for k := 0; k < numShards; k++ {
		shardDirs[k] = filepath.Join(base, fmt.Sprintf("shard%d", k))
		store, err := cache.New(shardDirs[k])
		if err != nil {
			t.Fatal(err)
		}
		e := NewEnv()
		e.Cache = store
		so := opt
		so.Shard, so.NumShards = k, numShards
		Fig16Reliability(e, so)
		Fig13WR(e, so)
		Fig19ErrorModels(e, so)
		Fig6Subtasks(e, so)
		Fig17CrossPlatform(e, so)
		Fig7PhaseInjection(e, so, Fig7InjectionQ)
	}

	merged := filepath.Join(base, "merged")
	if _, err := cache.MergeDirs(merged, shardDirs...); err != nil {
		t.Fatal(err)
	}

	store, err := cache.New(merged)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv()
	e.Cache = store
	rel := Fig16Reliability(e, opt)
	wr := Fig13WR(e, opt)
	em := Fig19ErrorModels(e, opt)
	sub := Fig6Subtasks(e, opt)
	cross := Fig17CrossPlatform(e, opt)
	phase := Fig7PhaseInjection(e, opt, Fig7InjectionQ)
	if store.Misses() != 0 {
		t.Fatalf("merged replay recomputed %d points: shards did not cover the grid", store.Misses())
	}

	plain := NewEnv()
	if want := Fig16Reliability(plain, opt); !reflect.DeepEqual(rel, want) {
		t.Fatal("merged Fig16Reliability diverged from the unsharded run")
	}
	if want := Fig13WR(plain, opt); !reflect.DeepEqual(wr, want) {
		t.Fatal("merged Fig13WR diverged from the unsharded run")
	}
	if want := Fig19ErrorModels(plain, opt); !reflect.DeepEqual(em, want) {
		t.Fatal("merged Fig19ErrorModels diverged from the unsharded run")
	}
	if want := Fig6Subtasks(plain, opt); !reflect.DeepEqual(sub, want) {
		t.Fatal("merged Fig6Subtasks diverged from the unsharded run")
	}
	if want := Fig17CrossPlatform(plain, opt); !reflect.DeepEqual(cross, want) {
		t.Fatal("merged Fig17CrossPlatform diverged from the unsharded run")
	}
	if want := Fig7PhaseInjection(plain, opt, Fig7InjectionQ); !reflect.DeepEqual(phase, want) {
		t.Fatal("merged Fig7PhaseInjection diverged from the unsharded run")
	}
}

// TestShardsPartitionTheGrid: every grid row is owned by exactly one
// shard, so the shards' rows, matched as a multiset, are the unsharded
// row set exactly once — no row lost, none duplicated, none invented.
func TestShardsPartitionTheGrid(t *testing.T) {
	opt := cachedOptions()
	e := NewEnv()
	full := Fig16Reliability(e, opt)

	remaining := map[OverallPoint]int{}
	for _, p := range full {
		remaining[p]++
	}
	for k := 0; k < 3; k++ {
		so := opt
		so.Shard, so.NumShards = k, 3
		for _, p := range Fig16Reliability(e, so) {
			if remaining[p] == 0 {
				t.Fatalf("shard %d emitted a row the unsharded run has no (further) copy of: %+v", k, p)
			}
			remaining[p]--
		}
	}
	for p, n := range remaining {
		if n != 0 {
			t.Fatalf("no shard emitted %+v", p)
		}
	}
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		in       string
		shard, n int
		wantErr  bool
	}{
		{"", 0, 0, false},
		{"1/3", 0, 3, false},
		{"3/3", 2, 3, false},
		{"1/1", 0, 1, false},
		{"0/3", 0, 0, true},
		{"4/3", 0, 0, true},
		{"x/3", 0, 0, true},
		{"2", 0, 0, true},
		{"2/", 0, 0, true},
	}
	for _, c := range cases {
		shard, n, err := ParseShard(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseShard(%q) err=%v, wantErr=%v", c.in, err, c.wantErr)
		}
		if err == nil && (shard != c.shard || n != c.n) {
			t.Fatalf("ParseShard(%q) = %d,%d want %d,%d", c.in, shard, n, c.shard, c.n)
		}
	}
}

// TestOptionsSplitNeverZero is the regression test for the nested-worker
// clamp: a 0 at either level would select GOMAXPROCS downstream (<= 0 means
// "all cores" throughout the engine) and blow the concurrency budget.
func TestOptionsSplitNeverZero(t *testing.T) {
	for w := -2; w <= 16; w++ {
		for n := 0; n <= 48; n++ {
			gridW, opt := Options{Trials: 1, Workers: w}.split(n)
			if gridW < 1 || opt.Workers < 1 {
				t.Fatalf("split(workers=%d, n=%d) handed out a starved level: grid=%d trial=%d",
					w, n, gridW, opt.Workers)
			}
			if w >= 1 && gridW*opt.Workers > w && gridW > 1 {
				t.Fatalf("split(workers=%d, n=%d) exceeds the budget: grid=%d trial=%d",
					w, n, gridW, opt.Workers)
			}
		}
	}
}

// TestCanceledContextAbortsBetweenGridPoints: once Options.Ctx is
// canceled, the next grid-point boundary panics with Canceled — the
// mechanism behind DELETE /v1/jobs/{id} on a running job — and a nil Ctx
// never cancels.
func TestCanceledContextAbortsBetweenGridPoints(t *testing.T) {
	e := NewEnv()
	store, _ := cache.New("")
	e.Cache = store
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := cachedOptions()
	opt.Workers = 1
	opt.Ctx = ctx

	caught := func() (r any) {
		defer func() { r = recover() }()
		Fig15Interval(e, opt)
		return nil
	}()
	if _, ok := caught.(Canceled); !ok {
		t.Fatalf("canceled sweep raised %v, want Canceled", caught)
	}
	if store.Misses() != 0 {
		t.Fatalf("canceled sweep still computed %d points", store.Misses())
	}

	// The uncancelled path is untouched, and a live (un-canceled) context
	// lets the sweep run to completion.
	opt.Ctx = context.Background()
	if rows := Fig15Interval(e, opt); len(rows) == 0 {
		t.Fatal("live context blocked the sweep")
	}
}

// TestFig14PredictorCached: the predictor training run — dataset build
// plus epoch loop — is content-addressed like any grid point: the second
// call replays the stored result without retraining, a cold store replays
// from disk, and the cached result equals the direct computation.
func TestFig14PredictorCached(t *testing.T) {
	opt := Options{Trials: 1, Seed: 2026}
	scale := PredictorScale{TrainFrames: 24, TestFrames: 8, Epochs: 1}
	want := Fig14Predictor(opt, scale)

	dir := t.TempDir()
	e := NewEnv()
	store, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	e.Cache = store
	if got := e.Fig14PredictorCached(opt, scale); got != want {
		t.Fatalf("cached training diverged: %+v vs %+v", got, want)
	}
	misses := store.Misses()
	if got := e.Fig14PredictorCached(opt, scale); got != want {
		t.Fatal("replayed training result diverged")
	}
	if store.Misses() != misses {
		t.Fatal("second call retrained instead of replaying")
	}

	// A different scale is a different fingerprint: no false sharing.
	other := scale
	other.Epochs = 2
	if got := e.Fig14PredictorCached(opt, other); got == want {
		t.Fatal("distinct training schedules shared a fingerprint")
	}

	// A cold environment over the same directory replays from disk.
	cold := NewEnv()
	coldStore, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.Cache = coldStore
	if got := cold.Fig14PredictorCached(opt, scale); got != want {
		t.Fatal("disk replay of the training result diverged")
	}
	if coldStore.Misses() != 0 {
		t.Fatalf("disk replay retrained (%d misses)", coldStore.Misses())
	}
}
