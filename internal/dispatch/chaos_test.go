package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
)

// chaosWorker boots a real create-serve worker behind a scripted chaos
// proxy and returns the proxy's URL (what the coordinator dials) plus the
// proxy for stats assertions.
func chaosWorker(t *testing.T, script string) (string, *ChaosProxy) {
	t.Helper()
	target, _ := newWorker(t)
	phases, err := ParseChaosScript(script)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewChaosProxy(target, phases)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return ts.URL, p
}

// TestChaosSelfHealing is the harness's acceptance gate: a single worker
// behind a failure-injecting proxy — connection drops, 503 load shedding,
// hung connections, added latency — and the run must still produce
// byte-identical output, with the worker going through probation and
// readmission exactly when the script kills it. One worker on purpose:
// completion *proves* the revived worker was reused, because there is
// nobody else to finish the shards.
//
// The scripts are phrased in requests, not wall time, so each case is
// deterministic: a shard submission retries 3 times (MaxRetries 2), so
// "drop:6" burns the whole submission (3 attempts) plus the first 3
// health probes before the proxy heals.
func TestChaosSelfHealing(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	want := singleNode(t, sel, opt)

	cases := []struct {
		name           string
		script         string
		requestTimeout time.Duration // 0 = default; set to bound hangs
		wantReadmit    bool
		wantInjected   string
		wantCount      int
	}{
		// The worker crashes mid-request six times: every submission
		// attempt severed, then the first probes too, then it revives.
		{"drop-then-recover", "drop:6,pass:-1", 0, true, "drop", 6},
		// The worker sheds load with Retry-After'd 503s, long enough to
		// exhaust the submission's retry budget.
		{"error-then-recover", "error:6,pass:-1", 0, true, "error", 6},
		// The hung-TCP case the per-request timeout exists for: the worker
		// accepts connections and never answers.
		{"hang-then-recover", "hang:3,pass:-1", 500 * time.Millisecond, true, "hang", 3},
		// Pure latency is not a failure: no probation, no readmission.
		{"delay-only", "delay:4:25ms,pass:-1", 0, false, "delay", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proxied, proxy := chaosWorker(t, tc.script)
			// Disk-backed: the staged shard entries the runner pulls back
			// need a persistent destination to merge into.
			store, err := cache.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			env := experiments.NewEnv()
			env.Cache = store
			coord := &Coordinator{
				Env: env, Store: store,
				Runners: []Runner{&HTTPRunner{
					BaseURL:        proxied,
					StageDir:       t.TempDir(),
					Local:          store,
					RequestTimeout: tc.requestTimeout,
					RetryBaseDelay: time.Millisecond,
				}},
				Health: fastHealth(),
			}
			var out bytes.Buffer
			if _, err := coord.Run(context.Background(), &out, sel, opt, 2, false); err != nil {
				t.Fatalf("chaos script %q killed the run: %v", tc.script, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("output diverged under chaos %q", tc.script)
			}

			readmits := coord.Metrics.Counter("create_dispatch_workers_readmitted_total", "",
				"worker", proxied).Value()
			if tc.wantReadmit && readmits != 1 {
				t.Errorf("readmissions = %d, want 1 — the run cannot have finished without the revived worker", readmits)
			}
			if !tc.wantReadmit && readmits != 0 {
				t.Errorf("readmissions = %d under pure latency, want 0", readmits)
			}
			if got := coord.Metrics.Counter("create_dispatch_workers_retired_total", "").Value(); got != 0 {
				t.Errorf("workers retired = %d, want 0", got)
			}
			st := proxy.Stats()
			if st.Injected[tc.wantInjected] != tc.wantCount {
				t.Errorf("proxy injected %v, want %d × %s", st.Injected, tc.wantCount, tc.wantInjected)
			}
			if st.Requests <= tc.wantCount {
				t.Errorf("proxy saw %d requests total, want more than the %d injected — the healed worker must have served the run", st.Requests, tc.wantCount)
			}
		})
	}
}

// TestChaosAdmin covers the proxy's control surface: stats reporting and
// mid-run script swaps.
func TestChaosAdmin(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	phases, err := ParseChaosScript("error:1,pass:-1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewChaosProxy(backend.URL, phases)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()
	admin := httptest.NewServer(p.Admin())
	defer admin.Close()

	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(front.URL + "/anything"); code != http.StatusServiceUnavailable {
		t.Fatalf("first request = %d, want the scripted 503", code)
	}
	if code := get(front.URL + "/anything"); code != http.StatusOK {
		t.Fatalf("second request = %d, want pass-through 200", code)
	}

	resp, err := http.Post(admin.URL+"/chaos", "application/json",
		strings.NewReader(`{"script":"error:-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("script swap = %d", resp.StatusCode)
	}
	if code := get(front.URL + "/anything"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-swap request = %d, want 503 forever", code)
	}
	if resp, err = http.Post(admin.URL+"/chaos", "application/json",
		strings.NewReader(`{"script":"nonsense:1"}`)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad script swap = %d, want 400", resp.StatusCode)
	}

	statsResp, err := http.Get(admin.URL + "/chaos")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st ChaosStats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 || st.Injected["error"] != 2 {
		t.Fatalf("stats = %+v, want 3 requests / 2 injected errors", st)
	}
}

func TestParseChaosScript(t *testing.T) {
	phases, err := ParseChaosScript("pass:3,drop:4,delay:2:50ms,error:2,hang:1,pass:-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 6 {
		t.Fatalf("parsed %d phases, want 6", len(phases))
	}
	if phases[2].Mode != ChaosDelay || phases[2].N != 2 || phases[2].Delay != 50*time.Millisecond {
		t.Fatalf("delay phase = %+v", phases[2])
	}
	if phases[5].N != -1 {
		t.Fatalf("trailing pass N = %d, want -1 (forever)", phases[5].N)
	}
	for _, bad := range []string{
		"", "nonsense:3", "drop", "delay:2", "drop:x", "drop:1:5s",
	} {
		if _, err := ParseChaosScript(bad); err == nil {
			t.Errorf("script %q parsed without error", bad)
		}
	}
}

// TestHTTPRunnerRetriesTransientErrors pins the retry classification: a
// 503 with a Retry-After hint is retried and succeeds transparently; a
// 404 is permanent and fails on the first attempt.
func TestHTTPRunnerRetriesTransientErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	r := &HTTPRunner{BaseURL: ts.URL, RetryBaseDelay: time.Millisecond}
	var out map[string]any
	if err := r.do(context.Background(), http.MethodGet, "/v1/anything", nil, &out); err != nil {
		t.Fatalf("transient 503 was not retried: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (one failure, one retry)", hits.Load())
	}

	var permHits atomic.Int64
	perm := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		permHits.Add(1)
		http.Error(w, "no such route", http.StatusNotFound)
	}))
	defer perm.Close()
	r2 := &HTTPRunner{BaseURL: perm.URL, RetryBaseDelay: time.Millisecond}
	if err := r2.do(context.Background(), http.MethodGet, "/v1/anything", nil, nil); err == nil {
		t.Fatal("404 did not surface as an error")
	}
	if permHits.Load() != 1 {
		t.Fatalf("server saw %d requests for a permanent error, want exactly 1 (no retry)", permHits.Load())
	}
}

// TestHTTPRunnerPerCallRetryPolicy pins which worker calls retry. Against
// a worker that answers 503 + Retry-After: 0 once and then succeeds, the
// job submission (do) and the export pull retry once: 2 requests, and the
// call succeeds. The health probe and the timing and trace pulls make
// exactly 1 request, stay best-effort (no cost observed, no span
// imported), and land on the next call. TestChaosSelfHealing's request
// arithmetic ("drop:6" = 3 submission attempts + 3 probes) rests on this.
func TestHTTPRunnerPerCallRetryPolicy(t *testing.T) {
	timing, err := json.Marshal(obs.JobTiming{Experiment: "fig19", ComputedPoints: 4, ComputeSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	if err := trace.WriteNDJSON(&spans, []trace.Span{{
		TraceID: "t", SpanID: "s", Name: "compute", Start: time.Unix(1, 0), End: time.Unix(2, 0),
	}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		want int64 // requests one call makes against the 503-once worker
		call func(r *HTTPRunner) error
		// landed reports whether the call's result arrived.
		landed func(r *HTTPRunner, err error) bool
	}{
		{"do", 2, func(r *HTTPRunner) error {
			var st map[string]any
			return r.do(ctx, http.MethodPost, "/v1/jobs", []byte(`{}`), &st)
		}, func(_ *HTTPRunner, err error) bool { return err == nil }},
		{"pull", 2, func(r *HTTPRunner) error {
			stage, err := cache.New("")
			if err != nil {
				return err
			}
			return r.pull(ctx, []string{"k"}, stage)
		}, func(_ *HTTPRunner, err error) bool { return err == nil }},
		{"CheckHealth", 1, func(r *HTTPRunner) error { return r.CheckHealth(ctx) },
			func(_ *HTTPRunner, err error) bool { return err == nil }},
		{"harvestJobCost", 1, func(r *HTTPRunner) error { r.harvestJobCost(ctx, "j"); return nil },
			func(r *HTTPRunner, _ error) bool { return len(r.Costs.Experiments()) > 0 }},
		{"importJobTrace", 1, func(r *HTTPRunner) error { r.importJobTrace(ctx, "j"); return nil },
			func(r *HTTPRunner, _ error) bool { return len(r.Trace.Spans()) > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if hits.Add(1) == 1 {
					w.Header().Set("Retry-After", "0")
					http.Error(w, "busy", http.StatusServiceUnavailable)
					return
				}
				switch req.URL.Path {
				case "/v1/jobs/j/timing":
					_, _ = w.Write(timing)
				case "/v1/jobs/j/trace":
					_, _ = w.Write(spans.Bytes())
				case "/v1/cache/export":
					// An empty export stream: no entries, no error.
				default:
					_, _ = w.Write([]byte(`{"ok":true}`))
				}
			}))
			defer ts.Close()
			r := &HTTPRunner{
				BaseURL: ts.URL, RetryBaseDelay: time.Millisecond,
				Costs: registry.NewCostTable(), Trace: trace.NewRecorder("t", "coordinator"),
			}
			err := tc.call(r)
			if got := hits.Load(); got != tc.want {
				t.Fatalf("one call made %d requests, want %d", got, tc.want)
			}
			if retried := tc.want > 1; tc.landed(r, err) != retried {
				t.Fatalf("after the 503: landed=%v (err %v), want %v", !retried, err, retried)
			}
			if tc.want > 1 {
				return
			}
			// The single attempt was a well-formed request: the next call,
			// against the now-healthy worker, lands.
			err = tc.call(r)
			if hits.Load() != 2 || !tc.landed(r, err) {
				t.Fatalf("second call: %d requests, landed=%v (err %v), want 2 and true", hits.Load(), tc.landed(r, err), err)
			}
		})
	}
}

// TestHTTPRunnerCheckHealth: 2xx means healthy, anything else (or an
// unreachable worker) does not.
func TestHTTPRunnerCheckHealth(t *testing.T) {
	url, _ := newWorker(t)
	healthy := &HTTPRunner{BaseURL: url}
	if err := healthy.CheckHealth(context.Background()); err != nil {
		t.Fatalf("live worker reported unhealthy: %v", err)
	}
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	if err := (&HTTPRunner{BaseURL: down.URL}).CheckHealth(context.Background()); err == nil {
		t.Fatal("503 worker reported healthy")
	}
	down.Close()
	if err := (&HTTPRunner{BaseURL: down.URL}).CheckHealth(context.Background()); err == nil {
		t.Fatal("dead worker reported healthy")
	}
}
