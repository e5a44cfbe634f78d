package dispatch

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/registry"
	"github.com/embodiedai/create/internal/service"
	"github.com/embodiedai/create/internal/world"
)

func testOptions() experiments.Options { return experiments.Options{Trials: 3, Seed: 2026} }

// singleNode renders the selection the way an unsharded create-bench run
// would: fresh environment, in-memory cache.
func singleNode(t *testing.T, sel []registry.Descriptor, opt experiments.Options) []byte {
	t.Helper()
	env := experiments.NewEnv()
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env.Cache = store
	var buf bytes.Buffer
	Render(&buf, env, sel, opt, false)
	return buf.Bytes()
}

// newWorker boots an in-process create-serve worker over its own
// disk-backed cache and returns its base URL plus the store (for
// asserting what it computed).
func newWorker(t *testing.T) (string, *cache.Store) {
	t.Helper()
	store, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	s := service.New(service.Config{Env: env, Store: store, Workers: 2, MaxConcurrentJobs: 1, QueueDepth: 16})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL, store
}

func selection(t *testing.T, names ...string) []registry.Descriptor {
	t.Helper()
	var sel []registry.Descriptor
	for _, n := range names {
		d, ok := registry.Lookup(n)
		if !ok {
			t.Fatalf("experiment %q not registered", n)
		}
		sel = append(sel, d)
	}
	return sel
}

// TestLocalShardMergeReplayMatchesUnsharded gates the create-bench
// refactor at the library level: two Local shard sessions (the -shard
// path), a merge session (the -merge path), and a replay — byte-identical
// to the unsharded render, with zero recompute.
func TestLocalShardMergeReplayMatchesUnsharded(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19", "fig15")
	want := singleNode(t, sel, opt)

	base := t.TempDir()
	shardDirs := make([]string, 2)
	for k := range shardDirs {
		shardDirs[k] = filepath.Join(base, "shard", string(rune('a'+k)))
		l, err := OpenLocal(
			[]string{"1/2", "2/2"}[k],
			shardDirs[k],
		)
		if err != nil {
			t.Fatal(err)
		}
		var scratch bytes.Buffer
		l.Run(&scratch, sel, l.Options(opt.Trials, opt.Seed, 0), false)
	}

	merged, err := OpenLocal("", filepath.Join(base, "merged"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := merged.MergeShardDirs(shardDirs...); err != nil || n == 0 {
		t.Fatalf("merge copied %d entries, err %v", n, err)
	}
	var got bytes.Buffer
	merged.Run(&got, sel, merged.Options(opt.Trials, opt.Seed, 0), false)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged replay diverged from the unsharded run:\n--- merged ---\n%s\n--- single ---\n%s", got.Bytes(), want)
	}
	if merged.Store.Misses() != 0 {
		t.Fatalf("merged replay recomputed %d points", merged.Store.Misses())
	}

	// A memory-only session refuses -merge (nothing to merge into), and a
	// sharded session refuses to run without persistence.
	mem, err := OpenLocal("", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.MergeShardDirs(shardDirs...); err == nil {
		t.Fatal("memory-only merge accepted")
	}
	if _, err := OpenLocal("1/2", ""); err == nil {
		t.Fatal("sharded session without a cache dir accepted")
	}
}

// TestCoordinatorTwoWorkersByteIdentical is the distributed acceptance
// gate: a 2-worker sharded fig16 run (a dynamic grid, the hardest case)
// renders byte-identically to single-node create-bench, and a second run
// over the same coordinator cache dispatches nothing and recomputes zero
// points anywhere.
func TestCoordinatorTwoWorkersByteIdentical(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig16")
	want := singleNode(t, sel, opt)

	w1, s1 := newWorker(t)
	w2, s2 := newWorker(t)
	dest := t.TempDir()
	stage := t.TempDir()

	run := func() ([]byte, *cache.Store, ShardPlan) {
		store, err := cache.New(dest)
		if err != nil {
			t.Fatal(err)
		}
		env := experiments.NewEnv()
		env.Cache = store
		coord := &Coordinator{
			Env: env, Store: store,
			Runners: []Runner{
				&HTTPRunner{BaseURL: w1, StageDir: filepath.Join(stage, "w1"), Local: store, Prewarm: true},
				&HTTPRunner{BaseURL: w2, StageDir: filepath.Join(stage, "w2"), Local: store, Prewarm: true},
			},
		}
		var out bytes.Buffer
		plan, err := coord.Run(context.Background(), &out, sel, opt, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), store, plan
	}

	got, store, plan := run()
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator output diverged from single-node:\n--- coordinator ---\n%s\n--- single ---\n%s", got, want)
	}
	if plan.ToCompute == 0 {
		t.Fatal("cold plan predicted no compute; the fan-out was not exercised")
	}
	if store.Misses() != 0 {
		t.Fatalf("replay after merge recomputed %d points locally", store.Misses())
	}
	// Both workers actually computed shards.
	if s1.Misses() == 0 || s2.Misses() == 0 {
		t.Fatalf("work was not distributed: worker misses %d / %d", s1.Misses(), s2.Misses())
	}

	// Resubmission over the same coordinator cache: zero points are
	// recomputed on any tier and the bytes still match. fig16's grid is
	// Dynamic — the enumeration is a superset of what any run computes, so
	// the warm plan still predicts compute for descent points no run ever
	// touches — but prewarm ships the coordinator's entries to whichever
	// worker a shard lands on, and the replayed descents take the same
	// early exits, so the store deltas are the true zero-recompute gate.
	w1Misses, w2Misses := s1.Misses(), s2.Misses()
	got2, store2, plan2 := run()
	if !bytes.Equal(got2, want) {
		t.Fatal("warm coordinator run diverged")
	}
	if plan2.Cached == 0 {
		t.Fatalf("warm plan saw no cached points: %+v", plan2)
	}
	if store2.Misses() != 0 {
		t.Fatalf("warm run recomputed %d points locally", store2.Misses())
	}
	if s1.Misses() != w1Misses || s2.Misses() != w2Misses {
		t.Fatalf("warm run recomputed points on a worker: %d/%d new misses",
			s1.Misses()-w1Misses, s2.Misses()-w2Misses)
	}
}

// flakyWorker accepts job submissions and then breaks every events
// stream — a worker that dies mid-shard, after taking the work.
func flakyWorker(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	var submissions atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submissions.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"job-1","state":"queued"}`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, &submissions
}

// TestCoordinatorWorkerLossRequeues: a worker killed mid-shard does not
// fail the job — its shard is re-queued to the surviving worker, the dead
// worker (whose health probes all fail) is retired, and the merged output
// still byte-matches the single-node run.
func TestCoordinatorWorkerLossRequeues(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	want := singleNode(t, sel, opt)

	healthy, _ := newWorker(t)
	dead, submissions := flakyWorker(t)

	store, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{
			&HTTPRunner{BaseURL: healthy, StageDir: t.TempDir(), RetryBaseDelay: time.Millisecond},
			&HTTPRunner{BaseURL: dead, StageDir: t.TempDir(), RetryBaseDelay: time.Millisecond},
		},
		Health: fastHealth(),
	}
	var out bytes.Buffer
	if _, err := coord.Run(context.Background(), &out, sel, opt, 3, false); err != nil {
		t.Fatalf("worker loss failed the run: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("output diverged after a worker loss")
	}
	if submissions.Load() == 0 {
		t.Fatal("the flaky worker was never assigned a shard; the loss path was not exercised")
	}
	if store.Misses() != 0 {
		t.Fatalf("replay recomputed %d points", store.Misses())
	}

	// The loss is visible in the dispatch counters: the dead worker's
	// failures were counted as retries, exactly one runner was retired
	// (leaving one healthy), and every failed shard was re-queued.
	reg := coord.Metrics
	if reg == nil {
		t.Fatal("coordinator collected no metrics")
	}
	counter := func(name string, labels ...string) int64 {
		return reg.Counter(name, "", labels...).Value()
	}
	if got := counter("create_dispatch_retries_total", "worker", dead); got < 1 {
		t.Errorf("retries for the dead worker = %d, want >= 1", got)
	}
	if got := counter("create_dispatch_workers_retired_total"); got != 1 {
		t.Errorf("workers retired = %d, want 1", got)
	}
	if got := reg.Gauge("create_dispatch_workers_healthy", "").Value(); got != 1 {
		t.Errorf("healthy workers = %d, want 1", got)
	}
	if got := counter("create_dispatch_shards_total", "state", "requeued"); got < 1 {
		t.Errorf("requeued shards = %d, want >= 1", got)
	}
	if disp, done := counter("create_dispatch_shards_total", "state", "dispatched"),
		counter("create_dispatch_shards_total", "state", "completed"); disp != done+counter("create_dispatch_shards_total", "state", "requeued") {
		t.Errorf("dispatched (%d) should equal completed (%d) + requeued", disp, done)
	}
	var exp bytes.Buffer
	reg.WritePrometheus(&exp)
	if !strings.Contains(exp.String(), "create_dispatch_merged_entries_total") {
		t.Errorf("exposition missing merge counter:\n%s", exp.String())
	}
}

// TestCoordinatorAllWorkersLost: when every runner's probation is
// exhausted with shards still pending, the run fails with a diagnosable
// error instead of hanging — and only after the probe budget was actually
// spent against the dead worker.
func TestCoordinatorAllWorkersLost(t *testing.T) {
	dead, _ := flakyWorker(t)
	store, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{&HTTPRunner{BaseURL: dead, StageDir: t.TempDir(), RetryBaseDelay: time.Millisecond}},
		Health: HealthConfig{
			MaxProbes: 3, Successes: 1,
			BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		},
	}
	var out bytes.Buffer
	_, err = coord.Run(context.Background(), &out, selection(t, "fig19"), testOptions(), 2, false)
	if err == nil {
		t.Fatal("run with no surviving workers reported success")
	}
	if !strings.Contains(err.Error(), "no healthy runners left") {
		t.Fatalf("error does not name the condition: %v", err)
	}
	// The flaky worker 500s /v1/healthz, so the whole probe budget failed
	// before the pool gave up on it.
	if got := coord.Metrics.Counter("create_dispatch_probes_total", "",
		"worker", dead, "outcome", "fail").Value(); got != 3 {
		t.Fatalf("failed probes = %d, want the full budget of 3", got)
	}
	if got := coord.Metrics.Counter("create_dispatch_workers_retired_total", "").Value(); got != 1 {
		t.Fatalf("workers retired = %d, want 1", got)
	}
}

// TestMergeShardAtMostOnce: a duplicate shard completion (a retry after a
// lost acknowledgement) merges nothing the second time.
func TestMergeShardAtMostOnce(t *testing.T) {
	src, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := cache.Point{Task: "wooden_pickaxe", ErrorModel: "uniform", Trials: 2, Seed: 1}
	if err := src.Put(p, agent.RunMany(agent.Config{Task: world.TaskWooden, Seed: 1}, 2, agent.RunOptions{Workers: 1})); err != nil {
		t.Fatal(err)
	}

	dest, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{Store: dest}
	n, dup, err := c.mergeShard(0, src.Dir())
	if err != nil || dup || n != 1 {
		t.Fatalf("first merge: n=%d dup=%v err=%v", n, dup, err)
	}
	n, dup, err = c.mergeShard(0, src.Dir())
	if err != nil || !dup || n != 0 {
		t.Fatalf("duplicate merge: n=%d dup=%v err=%v, want skipped", n, dup, err)
	}
	// A different shard still merges (and the union stays idempotent).
	n, dup, err = c.mergeShard(1, src.Dir())
	if err != nil || dup || n != 0 {
		t.Fatalf("second shard merge: n=%d dup=%v err=%v (entries already present copy nothing)", n, dup, err)
	}
}

// TestPlanShardsHitAware: with the whole grid already cached locally,
// every shard plans free and Execute dispatches nothing — the scheduling
// primitive behind "a resubmission computes zero points anywhere".
func TestPlanShardsHitAware(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	env := experiments.NewEnv()
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env.Cache = store

	cold := PlanShards(env, sel, opt, 3, nil)
	if cold.ToCompute != cold.GridPoints || cold.ToCompute == 0 {
		t.Fatalf("cold plan implausible: %+v", cold)
	}
	var keys int
	for _, w := range cold.Shards {
		keys += len(w.Keys())
	}
	if keys != cold.GridPoints {
		t.Fatalf("manifests carry %d keys for %d points", keys, cold.GridPoints)
	}

	// Warm the cache by running the figure, then re-plan.
	Render(&bytes.Buffer{}, env, sel, opt, false)
	warm := PlanShards(env, sel, opt, 3, nil)
	if warm.ToCompute != 0 {
		t.Fatalf("warm plan still wants %d points", warm.ToCompute)
	}
	// Execute with a runner that must never be called.
	c := &Coordinator{Env: env, Store: store, Runners: []Runner{panicRunner{}}}
	if err := c.Execute(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
}

// panicRunner fails the test if the coordinator dispatches to it.
type panicRunner struct{}

func (panicRunner) Label() string { return "must-not-run" }
func (panicRunner) RunShard(context.Context, ShardPlan, int) (string, error) {
	panic("free shard was dispatched")
}
