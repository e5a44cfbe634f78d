package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs/trace"
)

// qjob builds a minimal queued job for direct admission-queue tests.
func qjob(id, tenant string, priority int) *job {
	return &job{id: id, spec: JobSpec{Tenant: tenant, Priority: priority}}
}

// TestAdmissionRoundRobinAndPriority: tenants drain one job per turn in
// arrival-order rotation, and within a tenant higher priority drains
// first with submission order breaking ties — fully deterministic.
func TestAdmissionRoundRobinAndPriority(t *testing.T) {
	a := newAdmission(64, 0, 1)
	for _, j := range []*job{
		qjob("a1", "alpha", 0),
		qjob("a2", "alpha", 5),
		qjob("a3", "alpha", 0),
		qjob("b1", "beta", 0),
		qjob("c1", "gamma", 9),
	} {
		if err := a.enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a2", "b1", "c1", "a1", "a3"}
	for i, id := range want {
		j, ok := a.dequeue()
		if !ok || j.id != id {
			t.Fatalf("dequeue %d = %v (ok=%v), want %s", i, j, ok, id)
		}
	}
	if a.depth() != 0 {
		t.Fatalf("queue depth %d after draining, want 0", a.depth())
	}
}

// TestAdmissionTenantQuota: the quota counts queued plus running jobs, so
// dequeuing does not free a slot — only release (terminal state) does.
func TestAdmissionTenantQuota(t *testing.T) {
	a := newAdmission(64, 2, 1)
	if err := a.enqueue(qjob("h1", "hog", 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.enqueue(qjob("h2", "hog", 0)); err != nil {
		t.Fatal(err)
	}
	err := a.enqueue(qjob("h3", "hog", 0))
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != "tenant_quota" || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("over-quota enqueue: %v", err)
	}
	if ae.RetryAfterSeconds < 1 {
		t.Fatalf("quota rejection has no backoff hint: %+v", ae)
	}
	// Another tenant is unaffected by hog's quota exhaustion.
	if err := a.enqueue(qjob("f1", "friend", 0)); err != nil {
		t.Fatalf("friend tenant rejected alongside hog: %v", err)
	}
	// Dequeue moves h1 from queued to running: still two slots in use.
	if j, ok := a.dequeue(); !ok || j.id != "h1" {
		t.Fatalf("dequeue = %v", j)
	}
	if err := a.enqueue(qjob("h4", "hog", 0)); !errors.As(err, &ae) {
		t.Fatalf("quota freed by dequeue alone: %v", err)
	}
	// Terminal release frees the slot.
	a.release("hog")
	if err := a.enqueue(qjob("h5", "hog", 0)); err != nil {
		t.Fatalf("enqueue after release: %v", err)
	}
}

// TestAdmissionRemove: cancel-while-queued pulls the job out of its queue
// but leaves its quota slot to the job's terminal release; removing an
// already-dequeued job reports false.
func TestAdmissionRemove(t *testing.T) {
	a := newAdmission(64, 1, 1)
	j1 := qjob("j1", "t", 0)
	if err := a.enqueue(j1); err != nil {
		t.Fatal(err)
	}
	if !a.remove(j1) {
		t.Fatal("remove of a queued job reported false")
	}
	if a.depth() != 0 {
		t.Fatalf("depth %d after remove", a.depth())
	}
	// The slot stays held until the terminal transition releases it.
	if err := a.enqueue(qjob("j2", "t", 0)); err == nil {
		t.Fatal("remove released the quota slot; only release may")
	}
	a.release("t")
	if n := len(a.inUse); n != 0 {
		t.Fatalf("release left %d idle tenant entries in the quota map", n)
	}
	if err := a.enqueue(qjob("j2", "t", 0)); err != nil {
		t.Fatalf("quota slot leaked: %v", err)
	}
	j2, _ := a.dequeue()
	if a.remove(j2) {
		t.Fatal("remove of a dequeued job reported true")
	}
}

// TestQueueFullRetryAfterHTTP (satellite): the 503 a full queue returns
// carries a Retry-After header and a JSON body with a machine-readable
// reason and hint, so the coordinator's backoff can honor it.
func TestQueueFullRetryAfterHTTP(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 1})
	// No Start(): the queue only fills.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitRaw := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submitRaw(`{"experiment":"table2","seed":1}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp = submitRaw(`{"experiment":"table2","seed":2}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 carries Retry-After %q, want a positive integer", ra)
	}
	var body struct {
		Error      string `json:"error"`
		Reason     string `json:"reason"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("503 body is not JSON: %v", err)
	}
	if body.Reason != "queue_full" || body.RetryAfter < 1 || body.Error == "" {
		t.Fatalf("503 body = %+v", body)
	}
	s.Start()
	s.Close()
}

// TestTenantQuota429HTTP: an over-quota tenant gets 429 with Retry-After
// while another tenant's submission is admitted, and the rejection lands
// on the admission metrics.
func TestTenantQuota429HTTP(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 8, TenantQuota: 1})
	// No Start(): jobs stay queued, keeping quota accounting deterministic.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitRaw := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submitRaw(`{"experiment":"table2","seed":1,"tenant":"hog"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first hog submit: %d", resp.StatusCode)
	}
	resp = submitRaw(`{"experiment":"table2","seed":2,"tenant":"hog"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota hog submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	var body struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Reason != "tenant_quota" {
		t.Fatalf("429 body reason = %q err=%v", body.Reason, err)
	}
	resp.Body.Close()
	resp = submitRaw(`{"experiment":"table2","seed":3,"tenant":"friend"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("friend submit alongside hog's quota exhaustion: %d, want 202", resp.StatusCode)
	}

	reg := s.cfg.Metrics
	if got := reg.Counter("create_admission_rejections_total", "",
		"tenant", "hog", "reason", "tenant_quota").Value(); got != 1 {
		t.Fatalf("admission rejections for hog = %d, want 1", got)
	}
	if got := reg.Gauge("create_tenant_queue_depth", "", "tenant", "friend").Value(); got != 1 {
		t.Fatalf("friend tenant queue depth = %d, want 1", got)
	}
	s.Start()
	s.Close()
	// Drained: per-tenant depth gauges return to zero.
	for _, tenant := range []string{"hog", "friend"} {
		if got := reg.Gauge("create_tenant_queue_depth", "", "tenant", tenant).Value(); got != 0 {
			t.Fatalf("tenant %s queue depth = %d after drain, want 0", tenant, got)
		}
	}
}

// TestPriorityOutOfRange: priorities outside [-100, 100] are a 400-class
// validation error, not an admission rejection.
func TestPriorityOutOfRange(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1})
	defer func() { s.Start(); s.Close() }()
	for _, tc := range []struct {
		priority int
		ok       bool
	}{{-101, false}, {-100, true}, {100, true}, {101, false}} {
		st, _, err := s.Submit(JobSpec{Experiment: "table2", Seed: seedOf(1), Priority: tc.priority}, trace.SpanContext{})
		if tc.ok {
			if err != nil {
				t.Fatalf("in-range priority %d rejected: %v", tc.priority, err)
			}
			// Canceled while queued, so the drain below runs nothing.
			if _, _, err := s.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var ae *AdmissionError
		if err == nil || errors.As(err, &ae) {
			t.Fatalf("out-of-range priority %d: %v", tc.priority, err)
		}
	}
}

// TestCancelAfterDequeueSettlesQuota: a job a worker has dequeued but not
// yet started is canceled. Its quota slot is free by the time done closes,
// and the worker's later run of the canceled job releases nothing twice.
func TestCancelAfterDequeueSettlesQuota(t *testing.T) {
	s, _ := unstartedServer(t)
	st, _, err := s.Submit(JobSpec{Experiment: "table2", Seed: seedOf(1), Tenant: "t"}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.adm.dequeue()
	if !ok || j.id != st.ID {
		t.Fatalf("dequeued %v, want job %s", j, st.ID)
	}
	if _, changed, err := s.Cancel(st.ID); err != nil || !changed {
		t.Fatalf("cancel: changed=%v err=%v", changed, err)
	}
	<-j.done
	inUse := func() map[string]int {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		return maps.Clone(s.adm.inUse)
	}
	if got := inUse(); len(got) != 0 {
		t.Fatalf("quota slots still held after done closed: %v", got)
	}
	s.run(j) // the worker's skip of the canceled job
	if got := inUse(); len(got) != 0 {
		t.Fatalf("quota slots after the skipped run: %v, want none", got)
	}
	if cur, _ := s.Job(st.ID); cur.State != StateCanceled {
		t.Fatalf("skipped job ended %s", cur.State)
	}
}

// TestCancelRacingResubmit (satellite): DELETE racing identical
// resubmissions — the coordinator's shard-retry pattern — must never leave
// an orphaned dedupe slot, a stuck create_jobs_inflight gauge, or a leaked
// quota slot. Run under -race.
func TestCancelRacingResubmit(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 2, MaxConcurrentJobs: 2, QueueDepth: 32, TenantQuota: 8})
	s.Start()
	defer s.Close()

	// One deadline bounds every wait below; a terminal wait blocks on the
	// job's done channel, closed when it reaches a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	waitTerminal := func(id string) JobStatus {
		t.Helper()
		s.mu.Lock()
		j, ok := s.jobs[id]
		s.mu.Unlock()
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			cur, _ := s.Job(id)
			t.Fatalf("job %s never terminated (state %v)", id, cur.State)
		}
		cur, _ := s.Job(id)
		return cur
	}

	for i := 0; i < 25; i++ {
		spec := JobSpec{Experiment: "fig15", Trials: 2, Seed: seedOf(int64(i)), Tenant: "racer"}
		st, _, err := s.Submit(spec, trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		ids := make([]string, 3)
		ids[0] = st.ID
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, _, _ = s.Cancel(st.ID)
		}()
		for k := 1; k <= 2; k++ {
			go func(k int) {
				defer wg.Done()
				if st2, _, err := s.Submit(spec, trace.SpanContext{}); err == nil {
					ids[k] = st2.ID
				}
			}(k)
		}
		wg.Wait()
		// Every job involved reaches a terminal state.
		for _, id := range ids {
			if id != "" {
				waitTerminal(id)
			}
		}
	}

	// Quiesced: done closes only once a job is fully settled, so with every
	// job terminal nothing is queued or running and no dedupe slot or quota
	// is in use — then a fresh identical submission is admitted and runs.
	s.mu.Lock()
	live := len(s.byKey)
	s.mu.Unlock()
	s.adm.mu.Lock()
	inUse := len(s.adm.inUse)
	s.adm.mu.Unlock()
	if live != 0 || s.metrics.inflight.Value() != 0 || s.adm.depth() != 0 || inUse != 0 {
		t.Fatalf("state leaked after cancel/resubmit races: byKey=%d inflight=%d depth=%d inUse=%d",
			live, s.metrics.inflight.Value(), s.adm.depth(), inUse)
	}
	st, deduped, err := s.Submit(JobSpec{Experiment: "fig15", Trials: 2, Seed: seedOf(7), Tenant: "racer"}, trace.SpanContext{})
	if err != nil || deduped {
		t.Fatalf("post-race resubmit: deduped=%v err=%v", deduped, err)
	}
	if cur := waitTerminal(st.ID); cur.State != StateDone && cur.State != StateCanceled {
		t.Fatalf("post-race job ended %s: %s", cur.State, cur.Error)
	}
}

// TestEventKeepalive: an idle events stream emits {"keepalive":true}
// lines at the configured cadence, so stream readers can distinguish a
// long compute from a hung connection.
func TestEventKeepalive(t *testing.T) {
	store, _ := cache.New("")
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 1, MaxConcurrentJobs: 1, EventKeepalive: 150 * time.Millisecond})
	// No Start(): the job stays queued, so the stream goes idle after the
	// first event.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, _, err := s.Submit(JobSpec{Experiment: "table2", Seed: seedOf(1)}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sawKeepalive := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"keepalive":true`)) {
				sawKeepalive = true
				// Terminate the stream by canceling the queued job.
				_, _, _ = s.Cancel(st.ID)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("events stream never ended")
	}
	if !sawKeepalive {
		t.Fatal("idle events stream emitted no keepalive line")
	}
	s.Start()
	s.Close()
}
