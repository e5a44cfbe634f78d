package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
)

// seedOf builds the wire representation of an explicit seed.
func seedOf(v int64) *int64 { return &v }

// testServer wires a server over a fresh environment and an httptest
// listener. The returned cleanup drains the pool.
func testServer(t *testing.T, dir string) (*Server, *httptest.Server, *cache.Store) {
	t.Helper()
	store, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 2, MaxConcurrentJobs: 2, QueueDepth: 8})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, store
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec, wantCode int) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("submit returned %d, want %d: %s", resp.StatusCode, wantCode, msg.String())
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// followEvents reads a job's NDJSON events stream until an event's state
// satisfies until, or to the stream's end when until is nil, and returns
// the last state it read. The stream ends once the job is terminal and
// fully settled; the client timeout bounds the whole read.
func followEvents(t *testing.T, ts *httptest.Server, id string, until func(State) bool) State {
	t.Helper()
	client := &http.Client{Timeout: 3 * time.Minute}
	resp, err := client.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last State
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("events stream of job %s: %v", id, err)
			}
			return last
		}
		if ev.State == "" {
			continue // keepalive line
		}
		last = ev.State
		if until != nil && until(last) {
			return last
		}
	}
}

// await follows a job's events stream to its end and returns the job's
// final status.
func await(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	if last := followEvents(t, ts, id, nil); !terminal(last) {
		t.Fatalf("events stream of job %s ended in state %q", id, last)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result returned %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEndToEndJobMatchesLibraryCall is the acceptance gate: a job submitted
// over HTTP renders byte-identically to the equivalent direct library call
// (which is also what create-bench prints), and resubmitting the same spec
// completes entirely from cache — zero newly computed grid points, asserted
// through the job's cache delta and /v1/cache/stats.
func TestEndToEndJobMatchesLibraryCall(t *testing.T) {
	const exp = "fig19"
	spec := JobSpec{Experiment: exp, Trials: 4, Seed: seedOf(2026)}

	// Reference: the direct library call on a fresh environment.
	d, ok := registry.Lookup(exp)
	if !ok {
		t.Fatal("experiment not registered")
	}
	var want bytes.Buffer
	refEnv := experiments.NewEnv()
	refStore, _ := cache.New("")
	refEnv.Cache = refStore
	d.Run(refEnv, experiments.Options{Trials: spec.Trials, Seed: *spec.Seed}).Render(&want)

	_, ts, store := testServer(t, t.TempDir())

	st := submit(t, ts, spec, http.StatusAccepted)
	st = await(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if got := fetchResult(t, ts, st.ID); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served rows diverge from the library call:\n--- served ---\n%s\n--- library ---\n%s", got, want.String())
	}
	if st.Cache == nil || st.Cache.Misses == 0 {
		t.Fatalf("first run should compute points, cache delta %+v", st.Cache)
	}
	if st.Plan == nil || st.Plan.ToCompute != st.Plan.GridPoints {
		t.Fatalf("cold plan should predict all points as to-compute: %+v", st.Plan)
	}

	// Resubmit the identical spec: a fresh job (the first one released its
	// dedupe slot at completion) that must be served from cache with zero
	// newly computed grid points — and byte-identical output.
	missesBefore := store.Misses()
	st2 := submit(t, ts, spec, http.StatusAccepted)
	if st2.ID == st.ID {
		t.Fatal("completed job must not swallow a resubmission")
	}
	st2 = await(t, ts, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("replay job failed: %s", st2.Error)
	}
	if st2.Cache == nil || st2.Cache.Misses != 0 {
		t.Fatalf("replay computed %+v, want zero misses", st2.Cache)
	}
	if st2.Plan == nil || !st2.Plan.Free() {
		t.Fatalf("replay plan should be free: %+v", st2.Plan)
	}
	if store.Misses() != missesBefore {
		t.Fatalf("store computed %d new points on replay", store.Misses()-missesBefore)
	}
	if got := fetchResult(t, ts, st2.ID); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("replayed job rendered different bytes")
	}

	// The shared-cache stats endpoint reflects the same accounting.
	resp, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
		Resident int   `json:"resident"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Misses != store.Misses() || stats.Resident != store.Len() {
		t.Fatalf("stats endpoint diverges from the store: %+v", stats)
	}
}

// TestConcurrentIdenticalJobsComputeOnce: however two identical
// submissions interleave — coalesced onto one live job, or a second job
// replaying the first's cache — the grid is computed exactly once.
func TestConcurrentIdenticalJobsComputeOnce(t *testing.T) {
	_, ts, store := testServer(t, "")
	spec := JobSpec{Experiment: "fig15", Trials: 4, Seed: seedOf(2026)}

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	outs := make([][]byte, 2)
	for i, id := range ids {
		st := await(t, ts, id)
		if st.State != StateDone {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		outs[i] = fetchResult(t, ts, id)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("identical specs rendered different bytes")
	}

	// However the two submissions raced, each unique grid point was
	// computed exactly once: total misses equals resident points.
	if store.Misses() != int64(store.Len()) {
		t.Fatalf("%d misses for %d unique points: the grid was computed more than once",
			store.Misses(), store.Len())
	}
}

// TestSubmitCoalescesLiveDuplicates pins the dedupe path deterministically:
// with a single worker occupied by an earlier job, two identical queued
// submissions must resolve to one job ID.
func TestSubmitCoalescesLiveDuplicates(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8})
	// No Start(): nothing drains the queue, so both submissions stay
	// queued and the second must coalesce with the first.
	spec := JobSpec{Experiment: "table6", Trials: 2, Seed: seedOf(7)}
	first, deduped, err := s.Submit(spec, trace.SpanContext{})
	if err != nil || deduped {
		t.Fatalf("first submit: %v deduped=%v", err, deduped)
	}
	second, deduped, err := s.Submit(spec, trace.SpanContext{})
	if err != nil || !deduped {
		t.Fatalf("second submit should coalesce: %v deduped=%v", err, deduped)
	}
	if first.ID != second.ID {
		t.Fatalf("coalesced submission got a fresh job: %s vs %s", first.ID, second.ID)
	}
	// A different spec is its own job.
	other, deduped, err := s.Submit(JobSpec{Experiment: "table6", Trials: 3, Seed: seedOf(7)}, trace.SpanContext{})
	if err != nil || deduped || other.ID == first.ID {
		t.Fatalf("distinct spec coalesced: %v %v %s", err, deduped, other.ID)
	}
	s.Start()
	s.Close() // drain the three queued jobs
}

// TestEventsStreamNDJSON: the events endpoint replays the full history as
// one JSON object per line, ending at the terminal state.
func TestEventsStreamNDJSON(t *testing.T) {
	_, ts, _ := testServer(t, "")
	st := submit(t, ts, JobSpec{Experiment: "table2", Trials: 2, Seed: seedOf(1)}, http.StatusAccepted)
	await(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected at least queued/running/done events, got %d lines: %q", len(lines), buf.String())
	}
	var last Event
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %q", i, line)
		}
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		last = ev
	}
	if last.State != StateDone {
		t.Fatalf("stream ended on %q, want done", last.State)
	}
}

// TestSubmitValidation: unknown experiments are rejected with the list of
// registered names; malformed shard specs are rejected; results of
// unfinished jobs are refused.
func TestSubmitValidation(t *testing.T) {
	s, ts, _ := testServer(t, "")

	body := []byte(`{"experiment":"fig99"}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment returned %d", resp.StatusCode)
	}
	for _, name := range []string{"fig16", "table6"} {
		if !strings.Contains(msg.Error, name) {
			t.Fatalf("rejection should list registered names, got %q", msg.Error)
		}
	}

	// An unseeded spec resolves to the CLI defaults — the byte-identity
	// contract with an unqualified create-bench run — while an explicit
	// seed 0 stays a distinct, honoured seed.
	defaulted, _, err := s.Submit(JobSpec{Experiment: "table2"}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.Spec.Trials != DefaultTrials || defaulted.Spec.Seed == nil || *defaulted.Spec.Seed != DefaultSeed {
		t.Fatalf("unseeded spec not normalized to the CLI defaults: %+v", defaulted.Spec)
	}
	zeroSeed, zeroDeduped, err := s.Submit(JobSpec{Experiment: "table2", Seed: seedOf(0)}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if zeroDeduped || zeroSeed.ID == defaulted.ID || *zeroSeed.Spec.Seed != 0 {
		t.Fatalf("explicit seed 0 collapsed into the default: %+v", zeroSeed)
	}

	if _, _, err := s.Submit(JobSpec{Experiment: "fig19", Shard: "5/3"}, trace.SpanContext{}); err == nil {
		t.Fatal("bad shard spec accepted")
	}
	// Sharded jobs need a disk-backed cache; this server is memory-only.
	if _, _, err := s.Submit(JobSpec{Experiment: "fig19", Shard: "1/3"}, trace.SpanContext{}); err == nil {
		t.Fatal("sharded job accepted without a disk cache")
	}

	// Tenant becomes a Prometheus label and a dedupe-key component, so
	// arbitrary client strings are rejected at submit (docs/METRICS.md).
	if _, _, err := s.Submit(JobSpec{Experiment: "fig19", Tenant: "bad tenant!"}, trace.SpanContext{}); err == nil {
		t.Fatal("tenant with disallowed characters accepted")
	}
	if _, _, err := s.Submit(JobSpec{Experiment: "fig19", Tenant: strings.Repeat("a", maxTenantLen+1)}, trace.SpanContext{}); err == nil {
		t.Fatal("overlong tenant accepted")
	}

	st := submit(t, ts, JobSpec{Experiment: "fig15", Trials: 4, Seed: seedOf(99)}, http.StatusAccepted)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict && resp2.StatusCode != http.StatusOK {
		t.Fatalf("unfinished result returned %d", resp2.StatusCode)
	}
	await(t, ts, st.ID)

	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job returned %d", resp.StatusCode)
		}
	}
}

// TestExperimentsListingPlans: the listing covers the whole registry and
// carries usable cache plans at the requested scale.
func TestExperimentsListingPlans(t *testing.T) {
	_, ts, _ := testServer(t, "")
	st := submit(t, ts, JobSpec{Experiment: "fig15", Trials: 4, Seed: seedOf(2026)}, http.StatusAccepted)
	await(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/experiments?trials=4&seed=2026")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Trials      int `json:"trials"`
		Experiments []struct {
			Name string        `json:"name"`
			Plan registry.Plan `json:"plan"`
		} `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Trials != 4 || len(listing.Experiments) != len(registry.Names()) {
		t.Fatalf("listing covers %d experiments at trials=%d", len(listing.Experiments), listing.Trials)
	}
	for _, e := range listing.Experiments {
		if e.Name != "fig15" {
			continue
		}
		if !e.Plan.Free() || e.Plan.Cached != e.Plan.GridPoints {
			t.Fatalf("fig15 just ran at this scale and should plan free: %+v", e.Plan)
		}
		return
	}
	t.Fatal("fig15 missing from the listing")
}

// TestGracefulShutdownDrains: Close finishes queued jobs before returning,
// and later submissions are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8})

	var sts []JobStatus
	for i := 0; i < 3; i++ {
		st, _, err := s.Submit(JobSpec{Experiment: "table2", Trials: 2, Seed: seedOf(int64(i))}, trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	s.Start()
	s.Close()

	for _, st := range sts {
		got, ok := s.Job(st.ID)
		if !ok || got.State != StateDone {
			t.Fatalf("job %s not drained: %+v", st.ID, got)
		}
	}
	if _, _, err := s.Submit(JobSpec{Experiment: "table2"}, trace.SpanContext{}); err != errShuttingDown {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	s.Close() // idempotent
}

// TestFinishedJobRetention: a long-lived daemon forgets its oldest
// terminal jobs past the cap, so memory stays flat; recent jobs remain
// queryable and the listing never dangles.
func TestFinishedJobRetention(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8, MaxFinishedJobs: 2})

	var ids []string
	for i := 0; i < 4; i++ {
		st, _, err := s.Submit(JobSpec{Experiment: "table2", Trials: 2, Seed: seedOf(int64(i))}, trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	s.Start()
	s.Close()

	for i, id := range ids {
		_, ok := s.Job(id)
		if want := i >= 2; ok != want {
			t.Fatalf("job %s (index %d) queryable=%v, want %v", id, i, ok, want)
		}
	}
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	s.mu.Unlock()
	if len(order) != 2 {
		t.Fatalf("listing retains %d jobs, want 2", len(order))
	}
	for _, id := range order {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("listing dangles: %s", id)
		}
	}
}

// TestQueueFull: a bounded queue rejects the overflow submission with a
// typed, distinguishable error instead of buffering unboundedly.
func TestQueueFull(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 2})
	// No Start(): the queue only fills.
	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(JobSpec{Experiment: "table2", Seed: seedOf(int64(i))}, trace.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.Submit(JobSpec{Experiment: "table2", Seed: seedOf(99)}, trace.SpanContext{})
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != "queue_full" || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %v", err)
	}
	if ae.RetryAfterSeconds < 1 {
		t.Fatalf("queue-full rejection carries no backoff hint: %+v", ae)
	}
	s.Start()
	s.Close()
}

// TestServedJobSharesCLICache: a job served by a daemon whose cache dir was
// populated by an earlier (CLI-shaped) run computes nothing — the disk
// cache is the contract between the batch and serving tiers.
func TestServedJobSharesCLICache(t *testing.T) {
	dir := t.TempDir()
	opt := experiments.Options{Trials: 4, Seed: 2026}

	// The "CLI run": a direct library call persisting into dir.
	cliStore, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cliEnv := experiments.NewEnv()
	cliEnv.Cache = cliStore
	d, _ := registry.Lookup("fig15")
	var want bytes.Buffer
	d.Run(cliEnv, opt).Render(&want)

	// A fresh daemon over the same dir serves the job without computing.
	_, ts, _ := testServer(t, dir)
	st := submit(t, ts, JobSpec{Experiment: "fig15", Trials: 4, Seed: seedOf(2026)}, http.StatusAccepted)
	st = await(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Cache == nil || st.Cache.Misses != 0 {
		t.Fatalf("daemon recomputed a CLI-cached grid: %+v", st.Cache)
	}
	if got := fetchResult(t, ts, st.ID); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("daemon rendered different bytes than the CLI run")
	}
}

// TestCancelQueuedJob: DELETE on a queued job terminates it immediately,
// releases its dedupe slot, and the worker pool later skips it.
func TestCancelQueuedJob(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8})
	// No Start(): the job stays queued until we cancel it.
	spec := JobSpec{Experiment: "fig15", Trials: 2, Seed: seedOf(5)}
	st, _, err := s.Submit(spec, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	got, changed, err := s.Cancel(st.ID)
	if err != nil || !changed || got.State != StateCanceled {
		t.Fatalf("cancel queued: changed=%v state=%s err=%v", changed, got.State, err)
	}
	// The slot is free: an identical resubmission is a fresh job, not a
	// coalescence onto the canceled one.
	st2, deduped, err := s.Submit(spec, trace.SpanContext{})
	if err != nil || deduped || st2.ID == st.ID {
		t.Fatalf("canceled job still coalesces: deduped=%v id=%s err=%v", deduped, st2.ID, err)
	}
	// A second cancel reports no change.
	if _, changed, err := s.Cancel(st.ID); err != nil || changed {
		t.Fatalf("double cancel: changed=%v err=%v", changed, err)
	}
	s.Start()
	s.Close() // drains: the canceled job must be skipped, the fresh one runs
	final, ok := s.Job(st.ID)
	if !ok || final.State != StateCanceled {
		t.Fatalf("canceled job was resurrected: %+v", final)
	}
	if fresh, ok := s.Job(st2.ID); !ok || fresh.State != StateDone {
		t.Fatalf("resubmission did not run: %+v", fresh)
	}
	if _, _, err := s.Cancel("job-999"); err == nil {
		t.Fatal("cancel of a missing job succeeded")
	}
}

// TestCancelRunningJob: DELETE on a running job cancels its context; the
// sweep stops at the next grid-point boundary and the job terminates as
// canceled, not failed — and without computing the rest of its grid.
func TestCancelRunningJob(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A grid big enough that cancellation always lands mid-run.
	st := submit(t, ts, JobSpec{Experiment: "fig16", Trials: 6, Seed: seedOf(2026)}, http.StatusAccepted)
	if followEvents(t, ts, st.ID, func(s State) bool { return s == StateRunning }) != StateRunning {
		t.Fatal("job never started")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel of a running job returned %d", resp.StatusCode)
	}
	final := await(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("canceled job ended %s (%s)", final.State, final.Error)
	}
	if final.Plan != nil && store.Len() >= final.Plan.GridPoints {
		t.Fatalf("cancellation computed the whole grid anyway (%d points)", store.Len())
	}
	// The result endpoint refuses a canceled job.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled result returned %d", rresp.StatusCode)
	}
}

// TestFinishedJobTTL: with a TTL configured, terminal jobs are forgotten
// by age even when the count cap has room. Expiry is checked on every
// lookup and listing, so the fake clock drives it without a sleep.
func TestFinishedJobTTL(t *testing.T) {
	const ttl = time.Hour
	clk := withFakeClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8,
		MaxFinishedJobs: 100, FinishedJobTTL: ttl})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	finishOne := func(seed int64) string {
		t.Helper()
		st, _, err := s.Submit(JobSpec{Experiment: "table2", Trials: 2, Seed: seedOf(seed)}, trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		s.runNext()
		if cur, ok := s.Job(st.ID); !ok || cur.State != StateDone {
			t.Fatalf("job %s gone or unfinished before its TTL: %+v", st.ID, cur)
		}
		return st.ID
	}

	// Lookup: a job finished longer than the TTL ago is never served.
	id := finishOne(1)
	clk.advance(ttl)
	if _, ok := s.Job(id); ok {
		t.Fatal("finished job outlived its TTL")
	}

	// Listing expires the same way.
	finishOne(2)
	clk.advance(ttl)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("listing served %d expired job(s)", len(list.Jobs))
	}
}

// TestCacheExportImportEndpoints: a worker's computed entries round-trip
// over POST /v1/cache/export into a second daemon via /v1/cache/import,
// after which the second daemon serves the same spec with zero newly
// computed points — the transfer behind the coordinator's shard pull and
// pre-warm.
func TestCacheExportImportEndpoints(t *testing.T) {
	_, tsA, storeA := testServer(t, t.TempDir())
	st := submit(t, tsA, JobSpec{Experiment: "fig15", Trials: 4, Seed: seedOf(2026)}, http.StatusAccepted)
	st = await(t, tsA, st.ID)
	if st.State != StateDone {
		t.Fatalf("seed job failed: %s", st.Error)
	}
	want := fetchResult(t, tsA, st.ID)

	resp, err := http.Post(tsA.URL+"/v1/cache/export", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("export returned %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var stream bytes.Buffer
	if _, err := stream.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if int64(bytes.Count(stream.Bytes(), []byte("\n"))) != storeA.Misses() {
		t.Fatalf("export carried %d entries, worker computed %d",
			bytes.Count(stream.Bytes(), []byte("\n")), storeA.Misses())
	}

	_, tsB, storeB := testServer(t, t.TempDir())
	iresp, err := http.Post(tsB.URL+"/v1/cache/import", "application/x-ndjson", bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var imported struct {
		Imported int `json:"imported"`
	}
	err = json.NewDecoder(iresp.Body).Decode(&imported)
	iresp.Body.Close()
	if err != nil || iresp.StatusCode != http.StatusOK || imported.Imported == 0 {
		t.Fatalf("import returned %d, landed %d entries, err %v", iresp.StatusCode, imported.Imported, err)
	}

	st2 := submit(t, tsB, JobSpec{Experiment: "fig15", Trials: 4, Seed: seedOf(2026)}, http.StatusAccepted)
	st2 = await(t, tsB, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("replay job failed: %s", st2.Error)
	}
	if st2.Cache == nil || st2.Cache.Misses != 0 {
		t.Fatalf("imported cache did not serve the job: %+v", st2.Cache)
	}
	if got := fetchResult(t, tsB, st2.ID); !bytes.Equal(got, want) {
		t.Fatal("imported replay rendered different bytes")
	}
	if storeB.Misses() != 0 {
		t.Fatalf("second daemon computed %d points", storeB.Misses())
	}

	// A memory-only daemon refuses export (no complete on-disk record) but
	// accepts imports.
	_, tsM, _ := testServer(t, "")
	mresp, err := http.Post(tsM.URL+"/v1/cache/export", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusConflict {
		t.Fatalf("memory-only export returned %d", mresp.StatusCode)
	}

	// A corrupt stream is rejected.
	cresp, err := http.Post(tsB.URL+"/v1/cache/import", "application/x-ndjson",
		strings.NewReader(`{"key":"deadbeef","entry":{"fingerprint":"task=forged","summary":{}}}`))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged import returned %d", cresp.StatusCode)
	}
}

// TestTimingRecordEndToEnd: a finished job serves a flat stage-timing
// record with monotonic non-zero stage timestamps and point counts that
// reconcile with its plan; a cache-warm replay attributes every point to
// the cache. Also scrapes /metrics for the families those stages feed.
func TestTimingRecordEndToEnd(t *testing.T) {
	spec := JobSpec{Experiment: "fig19", Trials: 4, Seed: seedOf(2026)}
	_, ts, _ := testServer(t, t.TempDir())

	st := submit(t, ts, spec, http.StatusAccepted)
	st = await(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}

	fetchTiming := func(id string) obs.JobTiming {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timing")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timing returned %d", resp.StatusCode)
		}
		var tm obs.JobTiming
		if err := json.NewDecoder(resp.Body).Decode(&tm); err != nil {
			t.Fatal(err)
		}
		return tm
	}

	tm := fetchTiming(st.ID)
	if tm.Job != st.ID || tm.Experiment != "fig19" || tm.Tenant != "default" || tm.Outcome != "done" {
		t.Fatalf("timing identity wrong: %+v", tm)
	}
	stages := []struct {
		name string
		at   time.Time
	}{
		{"queued", tm.QueuedAt}, {"started", tm.StartedAt}, {"planned", tm.PlannedAt},
		{"computed", tm.ComputedAt}, {"rendered", tm.RenderedAt},
	}
	for i, s := range stages {
		if s.at.IsZero() {
			t.Fatalf("stage %s has zero timestamp: %+v", s.name, tm)
		}
		if i > 0 && s.at.Before(stages[i-1].at) {
			t.Fatalf("stage %s precedes %s: %+v", s.name, stages[i-1].name, tm)
		}
	}
	for name, d := range map[string]float64{
		"queue_wait": tm.QueueWaitSeconds, "plan": tm.PlanSeconds,
		"compute": tm.ComputeSeconds, "render": tm.RenderSeconds,
	} {
		if d < 0 {
			t.Errorf("%s duration negative: %v", name, d)
		}
	}
	if tm.TotalSeconds <= 0 {
		t.Errorf("total duration = %v, want > 0", tm.TotalSeconds)
	}
	if st.Plan == nil || tm.GridPoints != st.Plan.GridPoints {
		t.Fatalf("timing grid points %d != plan %+v", tm.GridPoints, st.Plan)
	}
	if tm.CacheHits+tm.ComputedPoints != tm.GridPoints {
		t.Fatalf("cache hits %d + computed %d != grid points %d",
			tm.CacheHits, tm.ComputedPoints, tm.GridPoints)
	}
	if tm.ComputedPoints != tm.GridPoints {
		t.Fatalf("cold run should compute every point: %+v", tm)
	}

	// Replay: every point now comes from cache.
	st2 := submit(t, ts, spec, http.StatusAccepted)
	st2 = await(t, ts, st2.ID)
	tm2 := fetchTiming(st2.ID)
	if tm2.CacheHits != tm2.GridPoints || tm2.ComputedPoints != 0 {
		t.Fatalf("replay should be all cache hits: %+v", tm2)
	}

	// CSV rendering: header plus one row with matching field counts.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/timing?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 || lines[0] != obs.TimingCSVHeader {
		t.Fatalf("csv timing malformed:\n%s", buf.String())
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Fatalf("csv row has %d fields, header %d", got, want)
	}

	// The same stages feed /metrics: scrape and check the families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics content type = %q", ct)
	}
	var mb bytes.Buffer
	if _, err := mb.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`create_jobs_total{experiment="fig19",state="done",tenant="default"} 2`,
		`create_job_stage_seconds_count{stage="compute"} 2`,
		`create_job_points_total{source="computed"} ` + strconv.Itoa(tm.GridPoints),
		`create_job_points_total{source="cache"}`,
		`create_cache_hits_total`,
		`create_cache_misses_total`,
		`create_queue_depth 0`,
		`create_jobs_inflight 0`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, mb.String())
		}
	}
}

// TestTimingUnavailableBeforeTerminal: timing for a queued job is a 409,
// and for an unknown job a 404.
func TestTimingUnavailableBeforeTerminal(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store}) // never Started: jobs stay queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _, err := s.Submit(JobSpec{Experiment: "fig19", Trials: 4, Seed: seedOf(7)}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/timing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued timing returned %d, want 409", resp.StatusCode)
	}
	missing, err := http.Get(ts.URL + "/v1/jobs/nope/timing")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing timing returned %d, want 404", missing.StatusCode)
	}
}

// TestDedupeJoinAndTenantAccounting: a coalesced submission increments the
// dedupe counter and lands in the job's timing record; a different tenant
// never coalesces even with an otherwise identical spec.
func TestDedupeJoinAndTenantAccounting(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store}) // never Started: jobs stay queued

	spec := JobSpec{Experiment: "fig19", Trials: 4, Seed: seedOf(7)}
	st1, dd1, err := s.Submit(spec, trace.SpanContext{})
	if err != nil || dd1 {
		t.Fatalf("first submit: dedup=%v err=%v", dd1, err)
	}
	st2, dd2, err := s.Submit(spec, trace.SpanContext{})
	if err != nil || !dd2 || st2.ID != st1.ID {
		t.Fatalf("identical live submit should coalesce: dedup=%v id=%s err=%v", dd2, st2.ID, err)
	}
	other := spec
	other.Tenant = "acme"
	st3, dd3, err := s.Submit(other, trace.SpanContext{})
	if err != nil || dd3 || st3.ID == st1.ID {
		t.Fatalf("cross-tenant submit must not coalesce: dedup=%v err=%v", dd3, err)
	}

	var b bytes.Buffer
	s.cfg.Metrics.WritePrometheus(&b)
	if want := `create_job_dedupe_joins_total{experiment="fig19",tenant="default"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("metrics missing %q in:\n%s", want, b.String())
	}

	// Cancel the queued job: its timing record exists at terminal state and
	// carries the join count.
	if _, changed, err := s.Cancel(st1.ID); err != nil || !changed {
		t.Fatalf("cancel: changed=%v err=%v", changed, err)
	}
	s.mu.Lock()
	j := s.jobs[st1.ID]
	s.mu.Unlock()
	j.mu.Lock()
	tm := j.timing
	j.mu.Unlock()
	if tm == nil || tm.Outcome != string(StateCanceled) || tm.DedupeJoins != 1 {
		t.Fatalf("canceled-queued timing record wrong: %+v", tm)
	}
	if tm.TotalSeconds != 0 || !tm.StartedAt.IsZero() {
		t.Fatalf("never-started job should have zero stage timestamps: %+v", tm)
	}
}
