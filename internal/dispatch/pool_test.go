package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
)

// fastHealth is a probe schedule quick enough for tests while exercising
// the real backoff arithmetic.
func fastHealth() HealthConfig {
	return HealthConfig{
		MaxProbes: 8, Successes: 2,
		BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}
}

// waitFor polls cond until it holds or the test deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scriptedRunner wraps a real runner with scripted shard and probe
// failures — a worker that dies and then heals, minus the network.
type scriptedRunner struct {
	inner      Runner
	failShards int // fail this many RunShard calls before delegating
	failProbes int // fail this many CheckHealth calls before passing

	mu                     sync.Mutex
	shardCalls, probeCalls int
}

func (r *scriptedRunner) Label() string { return r.inner.Label() }

func (r *scriptedRunner) RunShard(ctx context.Context, plan ShardPlan, shard int) (string, error) {
	r.mu.Lock()
	r.shardCalls++
	fail := r.shardCalls <= r.failShards
	r.mu.Unlock()
	if fail {
		return "", errors.New("injected shard failure")
	}
	return r.inner.RunShard(ctx, plan, shard)
}

func (r *scriptedRunner) CheckHealth(context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probeCalls++
	if r.probeCalls <= r.failProbes {
		return errors.New("still down")
	}
	return nil
}

// TestFlakyWorkerProbationReadmit is the one-flaky-worker regression: a
// pool of ONE worker that fails a shard and then recovers must complete
// the run via probation and readmission — before probation existed, this
// exact scenario died with "no healthy runners left".
func TestFlakyWorkerProbationReadmit(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	want := singleNode(t, sel, opt)

	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	flaky := &scriptedRunner{
		inner:      &LocalRunner{Env: env, Name: "flaky-1"},
		failShards: 1, failProbes: 2,
	}
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{flaky},
		Health:  fastHealth(),
	}
	var out bytes.Buffer
	if _, err := coord.Run(context.Background(), &out, sel, opt, 2, false); err != nil {
		t.Fatalf("one flaky worker failed the whole run: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("output diverged after a probation readmit")
	}

	reg := coord.Metrics
	counter := func(name string, labels ...string) int64 {
		return reg.Counter(name, "", labels...).Value()
	}
	if got := counter("create_dispatch_workers_readmitted_total", "worker", "flaky-1"); got != 1 {
		t.Errorf("readmissions = %d, want 1", got)
	}
	if got := counter("create_dispatch_workers_retired_total"); got != 0 {
		t.Errorf("workers retired = %d, want 0 — the flaky worker must come back, not die", got)
	}
	if got := counter("create_dispatch_probes_total", "worker", "flaky-1", "outcome", "fail"); got != 2 {
		t.Errorf("failed probes = %d, want the scripted 2", got)
	}
	if got := counter("create_dispatch_probes_total", "worker", "flaky-1", "outcome", "ok"); got != 2 {
		t.Errorf("ok probes = %d, want Successes (2)", got)
	}
	if got := reg.Gauge("create_dispatch_workers_healthy", "").Value(); got != 1 {
		t.Errorf("healthy workers = %d after readmit, want 1", got)
	}
	if got := reg.Gauge("create_dispatch_workers_probation", "").Value(); got != 0 {
		t.Errorf("probation gauge = %d after the run, want 0", got)
	}
}

// TestProbationRequiresConsecutiveSuccesses: a flapping worker (ok, fail,
// ok, fail, ...) never strings together the required successes and is
// retired when the probe budget runs out.
func TestProbationRequiresConsecutiveSuccesses(t *testing.T) {
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	flapper := &flappingRunner{inner: &LocalRunner{Env: env, Name: "flapper"}}
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{flapper},
		Health: HealthConfig{
			MaxProbes: 4, Successes: 2,
			BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		},
	}
	var out bytes.Buffer
	_, err = coord.Run(context.Background(), &out, selection(t, "fig19"), testOptions(), 2, false)
	if err == nil || !strings.Contains(err.Error(), "no healthy runners left") {
		t.Fatalf("flapping worker was not retired: %v", err)
	}
	if got := coord.Metrics.Counter("create_dispatch_workers_readmitted_total", "",
		"worker", "flapper").Value(); got != 0 {
		t.Fatalf("flapping worker was readmitted %d time(s) on non-consecutive successes", got)
	}
}

// flappingRunner always fails shards and alternates probe outcomes
// ok/fail — healthy-looking one moment, dead the next.
type flappingRunner struct {
	inner  Runner
	probes atomic.Int64
}

func (r *flappingRunner) Label() string { return r.inner.Label() }
func (r *flappingRunner) RunShard(context.Context, ShardPlan, int) (string, error) {
	return "", errors.New("injected shard failure")
}
func (r *flappingRunner) CheckHealth(context.Context) error {
	if r.probes.Add(1)%2 == 1 {
		return nil
	}
	return errors.New("flapped back down")
}

// gateRunner holds every shard until the gate closes — a worker busy on a
// long shard, for exercising mid-run membership changes.
type gateRunner struct {
	Runner
	gate chan struct{}
}

func (g *gateRunner) RunShard(ctx context.Context, plan ShardPlan, shard int) (string, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	return g.Runner.RunShard(ctx, plan, shard)
}

// countRunner counts RunShard calls through to its delegate.
type countRunner struct {
	Runner
	calls atomic.Int64
}

func (c *countRunner) RunShard(ctx context.Context, plan ShardPlan, shard int) (string, error) {
	c.calls.Add(1)
	return c.Runner.RunShard(ctx, plan, shard)
}

// TestDynamicMembershipLateJoin: a worker registered mid-run immediately
// receives pending shards while the original worker is still busy, and
// the merged output is byte-identical to single-node.
func TestDynamicMembershipLateJoin(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	want := singleNode(t, sel, opt)

	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	gate := &gateRunner{
		Runner: &LocalRunner{Env: env, Name: "local-1"},
		gate:   make(chan struct{}),
	}
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{gate},
		Health:  fastHealth(),
		// Pre-set so the mid-run metric polls below never race the
		// registry's lazy initialization.
		Metrics: obs.NewRegistry(),
	}

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		_, err := coord.Run(context.Background(), &out, sel, opt, 3, false)
		done <- err
	}()

	// The only worker is stuck on its first shard; two shards are pending.
	waitFor(t, "the gated worker to go busy", func() bool {
		for _, w := range coord.Workers() {
			if w.Label == "local-1" && w.State == "busy" {
				return true
			}
		}
		return false
	})
	joiner := &countRunner{Runner: &LocalRunner{Env: env, Name: "local-2"}}
	if err := coord.AddRunner(joiner); err != nil {
		t.Fatal(err)
	}
	if err := coord.AddRunner(&LocalRunner{Env: env, Name: "local-2"}); err == nil {
		t.Fatal("duplicate label joined the pool twice")
	}
	// The late joiner drains the pending shards while local-1 is still
	// stuck; only then is the gate released.
	completed := func() int64 {
		return coord.Metrics.Counter("create_dispatch_shards_total", "", "state", "completed").Value()
	}
	waitFor(t, "the late joiner to finish the pending shards", func() bool { return completed() >= 2 })
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatalf("run with a late joiner failed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("output diverged with a late joiner")
	}
	if joiner.calls.Load() < 2 {
		t.Fatalf("late joiner ran %d shard(s), want the 2 that were pending", joiner.calls.Load())
	}
	if got := coord.Metrics.Counter("create_dispatch_workers_joined_total", "",
		"worker", "local-2").Value(); got != 1 {
		t.Fatalf("joined counter = %d, want 1", got)
	}
	if got := len(coord.Workers()); got != 2 {
		t.Fatalf("pool lists %d workers after the run, want 2", got)
	}
}

// TestDrainRunnerMidRun: a drained worker finishes its in-flight shard
// (the staged work still merges), then leaves; remaining shards go to the
// survivor; between runs the drained worker is gone from the pool.
func TestDrainRunnerMidRun(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	want := singleNode(t, sel, opt)

	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	gate := &gateRunner{
		Runner: &LocalRunner{Env: env, Name: "local-1"},
		gate:   make(chan struct{}),
	}
	survivor := &countRunner{Runner: &LocalRunner{Env: env, Name: "local-2"}}
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{gate, survivor},
		Health:  fastHealth(),
	}

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		_, err := coord.Run(context.Background(), &out, sel, opt, 4, false)
		done <- err
	}()
	waitFor(t, "the gated worker to go busy", func() bool {
		for _, w := range coord.Workers() {
			if w.Label == "local-1" && w.State == "busy" {
				return true
			}
		}
		return false
	})
	if err := coord.DrainRunner("local-1"); err != nil {
		t.Fatal(err)
	}
	var draining bool
	for _, w := range coord.Workers() {
		if w.Label == "local-1" && w.Draining {
			draining = true
		}
	}
	if !draining {
		t.Fatal("busy worker not marked draining")
	}
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatalf("run with a draining worker failed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("output diverged across a drain")
	}
	if got := coord.Metrics.Counter("create_dispatch_workers_drained_total", "",
		"worker", "local-1").Value(); got != 1 {
		t.Fatalf("drained counter = %d, want 1", got)
	}
	// The survivor took everything past the drained worker's one in-flight
	// shard, and the next run's pool no longer lists local-1.
	if survivor.calls.Load() < 3 {
		t.Fatalf("survivor ran %d shards, want the 3 the drained worker gave up", survivor.calls.Load())
	}
	workers := coord.Workers()
	if len(workers) != 1 || workers[0].Label != "local-2" {
		t.Fatalf("pool after the run = %+v, want only local-2", workers)
	}
	if err := coord.DrainRunner("local-404"); err == nil {
		t.Fatal("draining an unknown worker reported success")
	}
}

// TestWorkersHandler: the dynamic-membership admin endpoint registers,
// lists, and drains workers over HTTP with the documented status codes.
func TestWorkersHandler(t *testing.T) {
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{&LocalRunner{Env: env, Name: "local-1"}},
	}
	ts := httptest.NewServer(coord.WorkersHandler(func(url string) (Runner, error) {
		return &HTTPRunner{BaseURL: url}, nil
	}))
	defer ts.Close()

	req := func(method, path, body string) (int, string) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		r, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := req(http.MethodPost, "/v1/workers", `{"url":"http://worker-a:8080/"}`); code != http.StatusOK {
		t.Fatalf("registering a worker: %d %s", code, body)
	}
	if code, _ := req(http.MethodPost, "/v1/workers", `{"url":"http://worker-a:8080"}`); code != http.StatusConflict {
		t.Fatalf("duplicate registration = %d, want 409", code)
	}
	if code, _ := req(http.MethodPost, "/v1/workers", `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty registration = %d, want 400", code)
	}
	code, body := req(http.MethodGet, "/v1/workers", "")
	if code != http.StatusOK {
		t.Fatalf("listing workers: %d", code)
	}
	var listing struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("listing is not JSON: %v", err)
	}
	labels := map[string]bool{}
	for _, w := range listing.Workers {
		labels[w.Label] = true
	}
	if !labels["local-1"] || !labels["http://worker-a:8080"] {
		t.Fatalf("listing = %+v, want local-1 and the registered worker", listing.Workers)
	}
	if code, _ := req(http.MethodDelete, "/v1/workers?url=http://worker-a:8080", ""); code != http.StatusOK {
		t.Fatalf("draining = %d, want 200", code)
	}
	if code, _ := req(http.MethodDelete, "/v1/workers?url=http://worker-a:8080", ""); code != http.StatusNotFound {
		t.Fatalf("draining an already-gone worker = %d, want 404", code)
	}
}

// TestProbeBackoffDeterministic: the probe schedule is a pure function of
// (config, worker, failure count) — reproducible across processes, jittered
// across workers, doubled per failure, capped at the max.
func TestProbeBackoffDeterministic(t *testing.T) {
	base, maxDelay := 250*time.Millisecond, 5*time.Second
	expected := base
	for fails := 0; fails < 12; fails++ {
		d1 := probeBackoff(base, maxDelay, "http://w1", fails)
		d2 := probeBackoff(base, maxDelay, "http://w1", fails)
		if d1 != d2 {
			t.Fatalf("fails=%d: backoff not deterministic (%v vs %v)", fails, d1, d2)
		}
		if d1 < expected/2 || d1 >= expected {
			t.Fatalf("fails=%d: backoff %v outside [%v, %v)", fails, d1, expected/2, expected)
		}
		if expected < maxDelay {
			expected *= 2
			if expected > maxDelay {
				expected = maxDelay
			}
		}
	}
	// Jitter actually spreads workers: not every key lands on one value.
	seen := map[time.Duration]bool{}
	for _, key := range []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"} {
		seen[probeBackoff(base, maxDelay, key, 0)] = true
	}
	if len(seen) < 2 {
		t.Fatal("probe jitter collapsed every worker onto one delay")
	}
}

// nopRunner succeeds at every shard with nothing staged.
type nopRunner string

func (r nopRunner) Label() string { return string(r) }

func (nopRunner) RunShard(context.Context, ShardPlan, int) (string, error) { return "", nil }

// TestAddRunnerRacingExecute: joins that race Execute's startup — a
// -workers-listen POST during a coordinator's first instants — land either
// in the pool snapshot or as late joins, never both and never neither, so
// the healthy gauge ends equal to the live member count. Run under -race:
// Execute must read Runners only under the pool lock.
func TestAddRunnerRacingExecute(t *testing.T) {
	gate := make(chan struct{})
	coord := &Coordinator{Runners: []Runner{&gateRunner{nopRunner("w0"), gate}}}
	plan := ShardPlan{NumShards: 4}
	for k := 0; k < plan.NumShards; k++ {
		plan.Shards = append(plan.Shards, ShardWork{Index: k, Selector: fmt.Sprintf("%d/%d", k+1, plan.NumShards), ToCompute: 1})
	}
	const joins = 8
	var wg sync.WaitGroup
	for i := 1; i <= joins; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := coord.AddRunner(&gateRunner{nopRunner(fmt.Sprintf("w%d", i)), gate}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Execute(context.Background(), plan) }()
	// Every dispatched shard blocks on the gate, so Execute is still running
	// (or has not started) while the joins land.
	wg.Wait()
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, w := range coord.Workers() {
		if w.State == memberIdle.String() {
			live++
		}
	}
	if live != joins+1 {
		t.Fatalf("pool has %d live members, want %d", live, joins+1)
	}
	if got := coord.Metrics.Gauge("create_dispatch_workers_healthy", "").Value(); got != int64(live) {
		t.Fatalf("create_dispatch_workers_healthy = %d, want the %d live members", got, live)
	}
}
