package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
	"github.com/embodiedai/create/internal/service"
)

//create:walltime-ok request deadlines, retry backoff, and the events-stream stall watchdog are failure-path timing; figure bytes come from the deterministic replay

// Runner executes one shard of a plan: every cacheable grid point the
// shard owns ends up either in the coordinator's own store or in a
// returned staging directory of content-addressed entries.
type Runner interface {
	// Label identifies the runner in logs and errors.
	Label() string
	// RunShard computes the shard's points. It returns the directory
	// holding the shard's cache entries, or "" when the points already
	// landed in the coordinator's store (the in-process path). A non-nil
	// error means the shard must be re-run; partial state is harmless
	// because entries are content-addressed and idempotent to merge.
	RunShard(ctx context.Context, plan ShardPlan, shard int) (dir string, err error)
}

// ---------------------------------------------------------------------------
// LocalRunner: today's in-process path.

// LocalRunner executes shards in-process against the coordinator's own
// environment — the exact code path a create-bench -shard run takes.
// Points land directly in Env.Cache, so RunShard returns no staging
// directory.
type LocalRunner struct {
	// Env is the evaluation substrate; Env.Cache must be the coordinator's
	// destination store.
	Env *experiments.Env
	// Workers bounds this runner's parallelism per shard (0 = all cores).
	// With several concurrent local runners, size this so the sum stays
	// within the machine.
	Workers int
	// Name labels the runner in logs (default "local").
	Name string
	// Trace, when set (share the coordinator's recorder), records one
	// compute span per shard under the dispatch span threaded through ctx.
	Trace *trace.Recorder
	// Costs, when set (share the coordinator's table), receives one
	// observation per computed job: the slice's predicted point count and
	// its measured wall time, the in-process leg of the cost feedback loop.
	Costs *registry.CostTable
}

func (r *LocalRunner) Label() string {
	if r.Name != "" {
		return r.Name
	}
	return "local"
}

// RunShard executes every experiment slice with owned cacheable points,
// discarding rendered output — only the cache entries matter; the
// coordinator's final replay renders. Slices that are fully cached or own
// no cacheable points are skipped: the replay recomputes uncached work
// locally anyway, identically to a single-node run.
func (r *LocalRunner) RunShard(ctx context.Context, plan ShardPlan, shard int) (string, error) {
	w := plan.Shards[shard]
	opt := experiments.Options{
		Trials: plan.Trials, Seed: plan.Seed, Workers: r.Workers,
		Shard: w.Index, NumShards: plan.NumShards, Ctx: ctx,
	}
	start := now()
	err := func() error {
		for _, job := range w.Jobs {
			if len(job.Keys) == 0 || job.ToCompute == 0 {
				continue
			}
			d, ok := registry.Lookup(job.Experiment)
			if !ok {
				return fmt.Errorf("plan names unregistered experiment %q", job.Experiment)
			}
			// Only touch the clock seam when someone collects the signal:
			// the fake-clock trace tests pin the exact read sequence of an
			// uncosted run.
			var jobStart time.Time
			if r.Costs != nil {
				jobStart = now()
			}
			if err := experiments.Guard(d.Name, func() { d.Run(r.Env, opt) }); err != nil {
				return err
			}
			if r.Costs != nil {
				// ToCompute is the plan's predicted point count for this
				// slice (dynamic grids are supersets); the measured wall
				// time over it is the per-point cost signal the next plan
				// schedules by.
				r.Costs.Observe(job.Experiment, job.ToCompute, now().Sub(jobStart).Seconds())
			}
		}
		return nil
	}()
	if r.Trace != nil {
		parent, _ := spanFrom(ctx)
		attrs := map[string]string{
			"node": r.Label(), "shard": w.Selector,
			"to_compute": strconv.Itoa(w.ToCompute),
		}
		if err != nil {
			attrs["error"] = err.Error()
		}
		r.Trace.Record(trace.Span{
			TraceID: r.Trace.TraceID(), SpanID: r.Trace.NewSpanID(), ParentID: parent.SpanID,
			Name: "compute " + w.Selector, Start: start, End: now(), Attrs: attrs,
		})
	}
	return "", err
}

// ---------------------------------------------------------------------------
// HTTPRunner: shards on a remote create-serve worker.

// HTTPRunner executes shards on a create-serve worker: one shard job per
// experiment slice (the worker's own pool and cache do the computing),
// NDJSON progress streamed back, and the computed entries pulled by
// content address into a per-shard staging directory for the coordinator
// to merge. The worker must run with a disk-backed cache (-cache-dir);
// the service enforces this for sharded jobs at submission.
type HTTPRunner struct {
	// BaseURL is the worker root, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// Client defaults to http.DefaultClient. Give it no overall timeout:
	// the events stream is open for the length of a shard.
	Client *http.Client
	// StageDir is where pulled shard entries land (a per-shard
	// subdirectory is created inside it). Keep it outside any live cache
	// directory: the coordinator deletes it after the merge.
	StageDir string
	// Local, when set, is the coordinator's destination store: the shard
	// pull is filtered to entries Local does not already hold, so a warm
	// cache transfers only the newly computed points.
	Local *cache.Store
	// Prewarm additionally pushes Local's entries from the shard's
	// manifest to the worker before submitting, so the worker's plan sees
	// them as hits instead of recomputing points the coordinator already
	// has. Best-effort: a failed push costs recompute, not correctness.
	Prewarm bool
	// OnEvent, when set, receives every progress event the worker streams.
	OnEvent func(shard int, ev service.Event)
	// Trace, when set (share the coordinator's recorder), stitches this
	// worker into the fleet timeline: every request carries a traceparent
	// header with the dispatch span from ctx, cache transfers record
	// import/export spans, and each finished job's worker-side spans are
	// pulled back and imported with their node rewritten to this worker's
	// label.
	Trace *trace.Recorder
	// Costs, when set (share the coordinator's table), harvests each
	// finished job's timing record (/v1/jobs/{id}/timing: computed points
	// and compute seconds) into the cost table — the remote leg of the
	// cost feedback loop. Best-effort, like the trace import.
	Costs *registry.CostTable
	// RequestTimeout bounds each control-plane request — submit, health
	// probe, timing/trace pulls, cache import — so one hung TCP connection
	// can never stall a shard indefinitely (0 = 30s).
	RequestTimeout time.Duration
	// MaxRetries bounds how many times a transient request failure
	// (transport error, 429, 5xx) is retried with backoff before the shard
	// is declared failed (0 = 2; negative disables retries). Retried
	// requests are safe: submissions dedupe on the worker and cache
	// transfers are content-addressed and idempotent.
	MaxRetries int
	// RetryBaseDelay seeds the retry backoff, doubled per attempt and
	// capped at 2s, with deterministic jitter (0 = 100ms). A Retry-After
	// hint from the worker overrides it, capped at 15s.
	RetryBaseDelay time.Duration
	// StallTimeout bounds *silence* on the events stream (0 = 2m). A shard
	// may legitimately run much longer — the worker emits keepalive lines
	// while computing — so a stream quiet past this is a hung connection
	// and the shard fails over. Keep it above the worker's keepalive
	// cadence (create-serve -event-keepalive, default 10s).
	StallTimeout time.Duration
}

func (r *HTTPRunner) Label() string { return r.BaseURL }

func (r *HTTPRunner) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

func (r *HTTPRunner) requestTimeout() time.Duration {
	if r.RequestTimeout > 0 {
		return r.RequestTimeout
	}
	return 30 * time.Second
}

func (r *HTTPRunner) maxRetries() int {
	if r.MaxRetries > 0 {
		return r.MaxRetries
	}
	if r.MaxRetries < 0 {
		return 0
	}
	return 2
}

func (r *HTTPRunner) retryBase() time.Duration {
	if r.RetryBaseDelay > 0 {
		return r.RetryBaseDelay
	}
	return 100 * time.Millisecond
}

func (r *HTTPRunner) stallTimeout() time.Duration {
	if r.StallTimeout > 0 {
		return r.StallTimeout
	}
	return 2 * time.Minute
}

// CheckHealth implements HealthChecker: one GET /v1/healthz under the
// request timeout, never retried (the probe loop is the retry). Any 2xx
// means the worker is serving again — the endpoint reports queue depth,
// in-flight jobs, and cache stats, but for readmission reachability is the
// signal.
func (r *HTTPRunner) CheckHealth(ctx context.Context) error {
	return r.send(ctx, r.requestTimeout(), http.MethodGet, "/v1/healthz", nil, nil)
}

func (r *HTTPRunner) RunShard(ctx context.Context, plan ShardPlan, shard int) (string, error) {
	w := plan.Shards[shard]
	keys := w.Keys()
	if r.Prewarm && r.Local != nil {
		start := now()
		if n, err := r.prewarm(ctx, keys); n > 0 || err != nil {
			r.span(ctx, "cache import "+w.Selector, start,
				map[string]string{"shard": w.Selector, "entries": strconv.Itoa(n)}, err)
		}
	}
	for _, job := range w.Jobs {
		if len(job.Keys) == 0 || job.ToCompute == 0 {
			continue
		}
		if err := r.runJob(ctx, plan, w, job); err != nil {
			return "", err
		}
	}
	// Pull only what the coordinator is missing: entries it already holds
	// would be skipped at the merge anyway, so shipping them is pure waste.
	if r.Local != nil {
		missing := keys[:0]
		for _, k := range keys {
			if !r.Local.ContainsKey(k) {
				missing = append(missing, k)
			}
		}
		keys = missing
	}
	dir := filepath.Join(r.StageDir, "shard-"+strconv.Itoa(w.Index))
	stage, err := cache.New(dir)
	if err != nil {
		return "", err
	}
	if len(keys) == 0 {
		return dir, nil
	}
	start := now()
	err = r.pull(ctx, keys, stage)
	r.span(ctx, "cache export "+w.Selector, start,
		map[string]string{"shard": w.Selector, "keys": strconv.Itoa(len(keys))}, err)
	if err != nil {
		return "", err
	}
	return dir, nil
}

// span records one runner-side operation (a cache transfer) under the
// dispatch span threaded through ctx. No-op without a shared recorder.
func (r *HTTPRunner) span(ctx context.Context, name string, start time.Time, attrs map[string]string, err error) {
	if r.Trace == nil {
		return
	}
	parent, _ := spanFrom(ctx)
	if attrs == nil {
		attrs = map[string]string{}
	}
	attrs["node"] = r.Label()
	if err != nil {
		attrs["error"] = err.Error()
	}
	r.Trace.Record(trace.Span{
		TraceID: r.Trace.TraceID(), SpanID: r.Trace.NewSpanID(), ParentID: parent.SpanID,
		Name: name, Start: start, End: now(), Attrs: attrs,
	})
}

// runJob submits one (experiment, shard) job and follows its event stream
// to a terminal state.
func (r *HTTPRunner) runJob(ctx context.Context, plan ShardPlan, w ShardWork, job ShardJob) error {
	seed := plan.Seed
	spec := service.JobSpec{
		Experiment: job.Experiment,
		Trials:     plan.Trials,
		Seed:       &seed,
		Shard:      w.Selector,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var st service.JobStatus
	if err := r.do(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return fmt.Errorf("submitting %s shard %s: %w", job.Experiment, w.Selector, err)
	}
	state, errMsg, err := r.follow(ctx, w.Index, st.ID)
	if err != nil {
		return fmt.Errorf("following %s shard %s (%s): %w", job.Experiment, w.Selector, st.ID, err)
	}
	if state != service.StateDone {
		return fmt.Errorf("%s shard %s (%s) ended %s: %s", job.Experiment, w.Selector, st.ID, state, errMsg)
	}
	r.importJobTrace(ctx, st.ID)
	r.harvestJobCost(ctx, st.ID)
	return nil
}

// harvestJobCost pulls a finished job's timing record and folds its
// measured per-point compute cost into the shared cost table. Best-effort
// and single-attempt: a worker that cannot serve its timing costs schedule
// quality, not correctness.
func (r *HTTPRunner) harvestJobCost(ctx context.Context, id string) {
	if r.Costs == nil {
		return
	}
	var rec obs.JobTiming
	if r.send(ctx, r.requestTimeout(), http.MethodGet, "/v1/jobs/"+id+"/timing", nil, func(body io.Reader) error {
		return json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&rec)
	}) == nil {
		r.Costs.Observe(rec.Experiment, rec.ComputedPoints, rec.ComputeSeconds)
	}
}

// importJobTrace pulls a finished job's worker-side spans into the
// shared fleet recorder, rewriting their node to this worker's label so
// the stitched timeline shows which worker ran them. Best-effort and
// single-attempt: a worker that cannot serve its trace costs visibility,
// not correctness.
func (r *HTTPRunner) importJobTrace(ctx context.Context, id string) {
	if r.Trace == nil {
		return
	}
	var spans []trace.Span
	if r.send(ctx, r.requestTimeout(), http.MethodGet, "/v1/jobs/"+id+"/trace", nil, func(body io.Reader) (err error) {
		spans, err = trace.ReadNDJSON(io.LimitReader(body, 1<<20))
		return err
	}) != nil {
		return
	}
	for i := range spans {
		if spans[i].Attrs == nil {
			spans[i].Attrs = map[string]string{}
		}
		spans[i].Attrs["node"] = r.Label()
	}
	r.Trace.Import(spans)
}

// follow streams a job's NDJSON events until a terminal state, forwarding
// each event to OnEvent. A broken stream is an error: the coordinator
// treats it as worker loss and re-queues the shard. There is no overall
// deadline — a shard legitimately runs for the length of its compute —
// but a watchdog bounds silence: the worker emits keepalive lines while
// idle, so a stream quiet past StallTimeout is a hung connection and the
// request is canceled.
func (r *HTTPRunner) follow(ctx context.Context, shard int, id string) (service.State, string, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, r.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", "", err
	}
	stamp(req)
	stall := r.stallTimeout()
	watchdog := time.AfterFunc(stall, cancel)
	defer watchdog.Stop()
	resp, err := r.client().Do(req)
	if err != nil {
		if fctx.Err() != nil && ctx.Err() == nil {
			return "", "", fmt.Errorf("events stream stalled for %v: %w", stall, err)
		}
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("events stream returned %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var last service.Event
	terminal := false
	for {
		var ev service.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			if fctx.Err() != nil && ctx.Err() == nil {
				return "", "", fmt.Errorf("events stream stalled for %v: %w", stall, err)
			}
			return "", "", fmt.Errorf("events stream broke: %w", err)
		}
		watchdog.Reset(stall)
		if ev.State == "" {
			// Keepalive line: liveness only, not a job event.
			continue
		}
		last = ev
		terminal = ev.State == service.StateDone || ev.State == service.StateFailed ||
			ev.State == service.StateCanceled
		if r.OnEvent != nil {
			r.OnEvent(shard, ev)
		}
	}
	if !terminal {
		return "", "", fmt.Errorf("events stream ended before a terminal state")
	}
	return last.State, last.Message, nil
}

// prewarm best-effort pushes locally resident entries from the shard's
// manifest to the worker, reporting how many entries it shipped (for the
// cache-import span; a failed push costs recompute, not correctness).
func (r *HTTPRunner) prewarm(ctx context.Context, keys []string) (int, error) {
	var buf bytes.Buffer
	n, err := r.Local.ExportTo(&buf, keys)
	if err != nil || n == 0 {
		return 0, err
	}
	return n, r.do(ctx, http.MethodPost, "/v1/cache/import", buf.Bytes(), nil)
}

// pull fetches the manifest's entries from the worker and lands them in
// the staging store, retried like do(): entries are content-addressed, so
// re-importing after a partial transfer is idempotent. Keys the worker
// never computed (dynamic-grid supersets) are simply absent from the
// stream. The stall timeout, not the request timeout, bounds each
// attempt: a full shard export can far outlast a control-plane round trip.
func (r *HTTPRunner) pull(ctx context.Context, keys []string, stage *cache.Store) error {
	body, err := json.Marshal(map[string]any{"keys": keys})
	if err != nil {
		return err
	}
	const path = "/v1/cache/export"
	return r.retry(ctx, path, func() error {
		return r.send(ctx, r.stallTimeout(), http.MethodPost, path, body, func(resp io.Reader) error {
			if _, err := stage.ImportFrom(resp); err != nil {
				return fmt.Errorf("staging exported entries: %w", err)
			}
			return nil
		})
	})
}

// do issues one JSON request against the worker with bounded retries,
// decoding a 2xx response into out (when non-nil). The body is a byte
// slice — not a Reader — precisely so retries can replay it.
func (r *HTTPRunner) do(ctx context.Context, method, path string, body []byte, out any) error {
	return r.retry(ctx, path, func() error {
		return r.send(ctx, r.requestTimeout(), method, path, body, func(resp io.Reader) error {
			if out == nil {
				return nil
			}
			return json.NewDecoder(resp).Decode(out)
		})
	})
}

// retry runs once until it succeeds, fails permanently, or has been
// retried MaxRetries times. The wait before retry `attempt` is jittered
// exponential backoff from the base, overridden by the worker's
// Retry-After hint (capped at 15s so a confused worker cannot park the
// coordinator).
func (r *HTTPRunner) retry(ctx context.Context, path string, once func() error) error {
	for attempt := 0; ; attempt++ {
		err := once()
		var re *retryableError
		if !errors.As(err, &re) || attempt >= r.maxRetries() || ctx.Err() != nil {
			return err
		}
		d := probeBackoff(r.retryBase(), 2*time.Second, r.BaseURL+path, attempt)
		if re.retryAfter > d {
			d = min(re.retryAfter, 15*time.Second)
		}
		if !sleepCtx(ctx, d) {
			return err
		}
	}
}

// send is the one way a request reaches the worker, and it makes exactly
// one attempt: a deadline of timeout, the JSON content type when there is
// a body, and the dispatch span from ctx as a traceparent header, so
// worker-side jobs and logs join the fleet trace. A 2xx body goes to read
// (nil drains it); any other status is an error carrying up to 4 KiB of
// the worker's text. Transport errors, 429s and 5xx come back as a
// retryableError with the worker's Retry-After hint — unless the caller
// gave up, which is no worker fault.
func (r *HTTPRunner) send(ctx context.Context, timeout time.Duration, method, path string, body []byte, read func(io.Reader) error) error {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, r.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	stamp(req)
	resp, err := r.client().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		return &retryableError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("%s %s returned %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return &retryableError{err: err, retryAfter: retryAfterHint(resp)}
		}
		return err
	}
	if read == nil {
		_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return err
	}
	return read(resp.Body)
}

// stamp propagates the dispatch span from the request's context as a
// traceparent header.
func stamp(req *http.Request) {
	if sc, ok := spanFrom(req.Context()); ok {
		req.Header.Set("traceparent", sc.Traceparent())
	}
}

// retryableError marks a request failure worth retrying: a transport
// error, a 429, or a 5xx. retryAfter carries the worker's Retry-After
// hint when it sent one.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// retryAfterHint parses a response's Retry-After header (seconds form).
func retryAfterHint(resp *http.Response) time.Duration {
	n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}
