package service

import (
	"bytes"
	"encoding/json"
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

// fakeClock is a stepping clock for the package's `now` seam: every read
// advances exactly one second, so stage durations become exact integers a
// test can assert on instead of mere monotonicity.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

// advance jumps the clock forward by d, on top of the per-read step.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// withFakeClock swaps the service tier's clock seam for the test's
// lifetime. Tests in this package do not run in parallel.
func withFakeClock(t *testing.T, base time.Time) *fakeClock {
	t.Helper()
	clk := &fakeClock{t: base}
	old := now
	now = clk.Now
	t.Cleanup(func() { now = old })
	return clk
}

// unstartedServer builds a server whose pool is never started, so the
// test drives the job lifecycle by hand (deterministic clock-call order).
func unstartedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	s := New(Config{Env: env, Store: store, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func fetchTrace(t *testing.T, ts *httptest.Server, id, query string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("trace returned %d, want %d", resp.StatusCode, wantCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceEndpointSpanTree: a finished job serves a queue→plan→compute→
// render span tree under one root, and — because IDs are derived, not
// random, and the clock is faked — a replayed submission against a fresh
// server yields byte-identical NDJSON.
func TestTraceEndpointSpanTree(t *testing.T) {
	spec := JobSpec{Experiment: "fig19", Trials: 3, Seed: seedOf(2026)}
	base := time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)

	runOnce := func() ([]byte, []byte, JobStatus) {
		withFakeClock(t, base)
		s, ts := unstartedServer(t)
		st, _, err := s.Submit(spec, trace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		s.runNext()
		return fetchTrace(t, ts, st.ID, "", http.StatusOK),
			fetchTrace(t, ts, st.ID, "?format=chrome", http.StatusOK),
			st
	}

	nd, chrome, st := runOnce()
	spans, err := trace.ReadNDJSON(bytes.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" || len(st.TraceID) != 32 {
		t.Fatalf("job status trace id = %q, want 32 hex digits", st.TraceID)
	}

	byName := map[string]trace.Span{}
	ids := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.TraceID, st.TraceID)
		}
		byName[sp.Name] = sp
		ids[sp.SpanID] = true
	}
	root, ok := byName["job fig19"]
	if !ok || root.ParentID != "" {
		t.Fatalf("missing or non-root job span: %+v", byName)
	}
	for _, name := range []string{"queue", "plan", "compute", "render"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s span; got %v", name, byName)
		}
		if sp.ParentID != root.SpanID {
			t.Fatalf("%s span parents %s, want root %s", name, sp.ParentID, root.SpanID)
		}
		if sp.End.Before(sp.Start) {
			t.Fatalf("%s span ends before it starts: %+v", name, sp)
		}
	}
	for _, sp := range spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			t.Fatalf("span %s has dangling parent %s", sp.Name, sp.ParentID)
		}
	}
	if got := byName["compute"].Attrs["grid_points"]; got == "" || got == "0" {
		t.Fatalf("compute span carries no grid accounting: %+v", byName["compute"].Attrs)
	}
	if out := root.Attrs["outcome"]; out != "done" {
		t.Fatalf("root outcome = %q, want done", out)
	}

	// Fake clock: every stage boundary is exactly one clock tick apart
	// (created=+1s, started=+3s, planned=+5s, computed=+7s, finished=+8s).
	for name, want := range map[string]time.Duration{
		"queue": 2 * time.Second, "plan": 2 * time.Second,
		"compute": 2 * time.Second, "render": time.Second,
		"job fig19": 7 * time.Second,
	} {
		if got := byName[name].End.Sub(byName[name].Start); got != want {
			t.Errorf("%s span duration = %v, want %v", name, got, want)
		}
	}

	// Chrome export: valid JSON with events for every span plus metadata.
	var ct struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &ct); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	var complete int
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != len(spans) {
		t.Fatalf("chrome trace has %d complete events for %d spans", complete, len(spans))
	}

	// Byte-stable replay: same submission sequence, fresh server and
	// clock, identical NDJSON and Chrome bytes.
	nd2, chrome2, st2 := runOnce()
	if st2.TraceID != st.TraceID {
		t.Fatalf("replayed trace id %s != %s", st2.TraceID, st.TraceID)
	}
	if !bytes.Equal(nd, nd2) {
		t.Fatalf("replayed NDJSON diverged:\n--- first ---\n%s\n--- second ---\n%s", nd, nd2)
	}
	if !bytes.Equal(chrome, chrome2) {
		t.Fatal("replayed chrome trace diverged")
	}
}

// TestFakeClockExactStageDurations: with the stepping clock, the timing
// record's derived durations are exact integers — the clock seam makes
// stage arithmetic testable instead of merely monotonic.
func TestFakeClockExactStageDurations(t *testing.T) {
	withFakeClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	s, ts := unstartedServer(t)
	st, _, err := s.Submit(JobSpec{Experiment: "fig19", Trials: 3, Seed: seedOf(2026)}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	s.runNext()

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	j.mu.Lock()
	tm := j.timing
	j.mu.Unlock()
	if tm == nil {
		t.Fatal("no timing record after terminal state")
	}
	for name, got := range map[string]float64{
		"queue_wait": tm.QueueWaitSeconds,
		"plan":       tm.PlanSeconds,
		"compute":    tm.ComputeSeconds,
	} {
		if got != 2 {
			t.Errorf("%s = %v seconds, want exactly 2", name, got)
		}
	}
	if tm.RenderSeconds != 1 {
		t.Errorf("render = %v seconds, want exactly 1", tm.RenderSeconds)
	}
	if tm.TotalSeconds != 7 {
		t.Errorf("total = %v seconds, want exactly 7", tm.TotalSeconds)
	}

	// The CSV row renders those exact stamps.
	body := string(fetchTiming(t, ts, st.ID))
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv timing malformed:\n%s", body)
	}
	if !strings.Contains(lines[1], ",2.000000,2.000000,2.000000,1.000000,7.000000,") {
		t.Fatalf("csv row missing exact durations: %s", lines[1])
	}
}

func fetchTiming(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timing?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timing csv returned %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceJoinsTraceparent: a submission carrying a W3C traceparent
// header joins the remote trace — the job reports the caller's trace ID
// and its root span nests under the caller's span. This is the mechanism
// that stitches worker jobs into a coordinator's fleet timeline.
func TestTraceJoinsTraceparent(t *testing.T) {
	_, ts, _ := testServer(t, t.TempDir())
	parentTrace := strings.Repeat("ab", 16)
	parentSpan := strings.Repeat("cd", 8)

	body, _ := json.Marshal(JobSpec{Experiment: "fig19", Trials: 3, Seed: seedOf(2026)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+parentTrace+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.TraceID != parentTrace {
		t.Fatalf("job trace id = %s, want the traceparent's %s", st.TraceID, parentTrace)
	}

	st = await(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	spans, err := trace.ReadNDJSON(bytes.NewReader(fetchTrace(t, ts, st.ID, "", http.StatusOK)))
	if err != nil {
		t.Fatal(err)
	}
	var root *trace.Span
	for i := range spans {
		if spans[i].Name == "job fig19" {
			root = &spans[i]
		}
		if spans[i].TraceID != parentTrace {
			t.Fatalf("span %s has trace %s, want %s", spans[i].Name, spans[i].TraceID, parentTrace)
		}
	}
	if root == nil || root.ParentID != parentSpan {
		t.Fatalf("root span should nest under the remote parent %s: %+v", parentSpan, root)
	}
}

// TestTraceUnavailableBeforeTerminal: /trace for a live job is a 409, for
// an unknown job a 404, and a job canceled while queued serves a trace of
// just its root and queue spans.
func TestTraceUnavailableBeforeTerminal(t *testing.T) {
	s, ts := unstartedServer(t)
	st, _, err := s.Submit(JobSpec{Experiment: "fig19", Trials: 3, Seed: seedOf(7)}, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	fetchTrace(t, ts, st.ID, "", http.StatusConflict)
	fetchTrace(t, ts, "nope", "", http.StatusNotFound)

	if _, changed, err := s.Cancel(st.ID); err != nil || !changed {
		t.Fatalf("cancel: changed=%v err=%v", changed, err)
	}
	spans, err := trace.ReadNDJSON(bytes.NewReader(fetchTrace(t, ts, st.ID, "", http.StatusOK)))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("canceled-queued trace has %d spans, want root+queue: %+v", len(spans), spans)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	if !names["job fig19"] || !names["queue"] {
		t.Fatalf("canceled-queued trace spans = %v, want job+queue", names)
	}

	// Its timing CSV is also served, with unreached stages empty.
	row := strings.Split(strings.TrimRight(string(fetchTiming(t, ts, st.ID)), "\n"), "\n")[1]
	if !strings.Contains(row, ",canceled,") {
		t.Fatalf("canceled csv row missing outcome: %s", row)
	}
}

// TestHTTPRequestMetrics: every route is wrapped in the request-metrics
// middleware — counter by (route pattern, status code) plus a duration
// histogram — with the pattern as the label, so cardinality stays fixed.
func TestHTTPRequestMetrics(t *testing.T) {
	_, ts, _ := testServer(t, t.TempDir())
	for _, path := range []string{"/healthz", "/v1/jobs/nope", "/v1/cache/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`create_http_requests_total{code="200",route="GET /healthz"} 1`,
		`create_http_requests_total{code="404",route="GET /v1/jobs/{id}"} 1`,
		`create_http_requests_total{code="200",route="GET /v1/cache/stats"} 1`,
		`create_http_request_seconds_count{route="GET /healthz"} 1`,
		`create_http_request_seconds_bucket{route="GET /healthz",le="+Inf"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, buf.String())
		}
	}
}
