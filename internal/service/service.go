// Package service is the evaluation-as-a-service tier: an HTTP daemon that
// accepts experiment jobs, runs them through the typed registry on a
// bounded worker pool, and serves rendered results and progress events —
// all backed by the same content-addressed Summary cache the CLIs use, so
// results computed anywhere (a CLI run, a sharded CI fleet, an earlier
// job) are served to later submissions without recomputation.
//
// API (see docs/OPERATIONS.md for a worked curl session):
//
//	POST /v1/jobs            submit {experiment, trials, seed, workers, shard, tenant}
//	GET  /v1/jobs            list all jobs, newest last
//	GET  /v1/jobs/{id}       poll one job
//	GET  /v1/jobs/{id}/events NDJSON stream of state transitions until terminal
//	GET  /v1/jobs/{id}/result rendered text (?format=json for typed rows)
//	GET  /v1/jobs/{id}/timing flat per-job stage timing record (?format=csv)
//	GET  /v1/cache/stats     shared cache accounting (one source with /metrics)
//	GET  /v1/experiments     registry listing with per-experiment cache plans
//	GET  /metrics            Prometheus text exposition of the obs registry
//	GET  /healthz            liveness + load snapshot (also GET /v1/healthz)
//
// Observability: every job is stamped at its stage boundaries
// (queued→planned→computed→rendered) into an obs.JobTiming record served
// at /v1/jobs/{id}/timing once terminal, and the same boundaries feed the
// create_job_* metric families on /metrics (see docs/METRICS.md).
// Instrumentation lives only at job and grid-point boundaries — the
// deterministic engine underneath is never touched.
//
// Scheduling: jobs enter a bounded per-tenant weighted-fair admission
// queue (admission.go) and are executed by a fixed pool of job workers.
// Tenants drain in deterministic round-robin rotation — one job per turn,
// highest priority first within a tenant — so no tenant starves another;
// an optional per-tenant quota on queued+running jobs converts one
// tenant's flood into 429s for that tenant alone. The total core budget is
// divided between concurrent jobs with the same sim.Split arithmetic the
// sweep grids use internally, so concurrent jobs cannot oversubscribe the
// machine. Identical live submissions (same experiment, trials, seed,
// shard) coalesce onto one job, which — together with per-point cache
// dedupe — guarantees a grid is computed at most once no matter how often
// or how concurrently it is requested.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
	"github.com/embodiedai/create/internal/sim"
)

//create:walltime-ok job submit/start/finish timestamps, event-stream heartbeats and shutdown deadlines are operational metadata; figure bytes come from the deterministic engine underneath

// now is the service tier's single wall-clock seam: every timestamp the
// package stamps (job stages, events, HTTP durations, retention) flows
// through it, so tests substitute a fake clock and assert exact stage
// durations instead of mere monotonicity.
var now = time.Now

// DefaultTrials and DefaultSeed match the CLIs' defaults, so an
// unqualified job renders exactly what an unqualified create-bench run
// prints.
const (
	DefaultTrials = 48
	DefaultSeed   = 2026
)

// State is a job's lifecycle stage.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is a submission: which experiment to run and at what scale.
// Seed is a pointer so an absent field defaults to DefaultSeed while an
// explicit 0 — a legitimate, honoured seed — stays distinguishable.
// Workers caps this job's parallelism below the server's per-job budget;
// Shard is the CLI's k/n grid selector for remote shard workers.
type JobSpec struct {
	Experiment string `json:"experiment"`
	Trials     int    `json:"trials,omitempty"`
	Seed       *int64 `json:"seed,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Shard      string `json:"shard,omitempty"`
	// Tenant labels the submission for per-tenant accounting in metrics
	// and timing records, and keys the per-tenant admission queue and
	// quota; empty normalizes to "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within one tenant's admission queue: higher
	// drains first, equal priorities drain in submission order. It never
	// lets one tenant jump another's turn in the round-robin rotation.
	// Bounded to [-100, 100]; 0 is the default.
	Priority int `json:"priority,omitempty"`
}

// key is the dedupe identity of a normalized spec: two live submissions
// with the same key coalesce onto one execution. Workers is excluded — it
// changes wall-clock only, never rows. Tenant is included so each
// tenant's jobs are accounted separately; identical grids still share
// compute through the point cache and singleflight underneath.
func (s JobSpec) key() string {
	k := s.Experiment + "|" + strconv.Itoa(s.Trials) + "|" +
		strconv.FormatInt(*s.Seed, 10) + "|" + s.Shard + "|" + s.Tenant
	// Priority is part of the identity (a high-priority duplicate must not
	// silently coalesce onto a low-priority queued job), appended only when
	// set so priority-0 specs keep their historical keys and trace IDs.
	if s.Priority != 0 {
		k += "|p" + strconv.Itoa(s.Priority)
	}
	return k
}

// CacheDelta is the shared store's accounting delta across one job's run:
// Misses is the number of newly computed grid points. Exact when jobs run
// alone (the e2e contract); approximate while jobs overlap, since the
// counters are store-global.
type CacheDelta struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Event is one NDJSON progress record.
type Event struct {
	Seq     int       `json:"seq"`
	Time    time.Time `json:"time"`
	Job     string    `json:"job"`
	State   State     `json:"state"`
	Message string    `json:"message,omitempty"`
}

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID         string         `json:"id"`
	TraceID    string         `json:"trace_id,omitempty"`
	Spec       JobSpec        `json:"spec"`
	State      State          `json:"state"`
	Deduped    bool           `json:"deduped,omitempty"`
	Plan       *registry.Plan `json:"plan,omitempty"`
	Error      string         `json:"error,omitempty"`
	CreatedAt  time.Time      `json:"created_at"`
	StartedAt  *time.Time     `json:"started_at,omitempty"`
	FinishedAt *time.Time     `json:"finished_at,omitempty"`
	Cache      *CacheDelta    `json:"cache,omitempty"`
}

// job is the server-side record.
type job struct {
	id   string
	spec JobSpec
	key  string

	// ctx is canceled by DELETE /v1/jobs/{id}; a running job's sweep polls
	// it between grid points.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	err      string
	plan     *registry.Plan
	output   []byte
	rows     any
	delta    *CacheDelta
	created  time.Time
	started  time.Time
	planned  time.Time
	computed time.Time
	finished time.Time
	// dedupeJoins counts submissions that coalesced onto this job while it
	// was live; timing is the flat stage record, built at terminal state.
	dedupeJoins int
	timing      *obs.JobTiming
	events      []Event
	done        chan struct{} // closed by finish once the job is fully settled

	// rec collects the job's spans (immutable pointer, set at submit);
	// rootSpan is the root span ID, allocated at submit so every log line
	// can carry it; parent is the remote span context a traceparent header
	// supplied, making this job part of a coordinator's fleet-wide trace.
	rec      *trace.Recorder
	rootSpan string
	parent   trace.SpanContext
}

func (j *job) appendEventLocked(state State, msg string) {
	j.events = append(j.events, Event{
		Seq: len(j.events), Time: now(), Job: j.id, State: state, Message: msg,
	})
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Spec: j.spec, State: j.state, Plan: j.plan,
		Error: j.err, CreatedAt: j.created, Cache: j.delta,
	}
	if j.rec != nil {
		st.TraceID = j.rec.TraceID()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// eventsSince returns events[from:] plus whether the job has terminated.
func (j *job) eventsSince(from int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, terminal(j.state)
}

// Config assembles a Server.
type Config struct {
	// Env is the shared evaluation substrate; Env.Cache should point at
	// Store so jobs and planning agree on residency.
	Env *experiments.Env
	// Store is the shared Summary cache behind /v1/cache/stats.
	Store *cache.Store
	// Workers is the total core budget across all concurrent jobs
	// (0 = all schedulable cores).
	Workers int
	// MaxConcurrentJobs sizes the worker pool (default 2).
	MaxConcurrentJobs int
	// QueueDepth bounds the total queued jobs across all tenants (default
	// 64); a full queue rejects submissions with 503 (plus a Retry-After
	// hint) rather than buffering unboundedly.
	QueueDepth int
	// TenantQuota, when positive, caps each tenant's queued+running jobs:
	// submissions past the quota are rejected with 429 and a Retry-After
	// hint while other tenants keep being admitted. 0 disables the quota.
	TenantQuota int
	// EventKeepalive is how long an idle events stream goes before a
	// keepalive line ({"keepalive":true}) is written, so readers can tell
	// a long compute from a hung connection (default 10s).
	EventKeepalive time.Duration
	// MaxFinishedJobs bounds how many terminal jobs (with their rendered
	// output, typed rows and event history) stay queryable (default 256).
	// Older finished jobs are forgotten, keeping a long-lived daemon's
	// memory flat; their computed points live on in the shared cache.
	MaxFinishedJobs int
	// FinishedJobTTL, when positive, additionally expires terminal jobs by
	// age, even when the count cap has room. Expiry is lazy: every job
	// lookup, listing and job finish first forgets the jobs finished longer
	// than this ago, so an expired job is never served. 0 disables
	// age-based expiry.
	FinishedJobTTL time.Duration
	// Metrics receives the daemon's instrument families and is served at
	// GET /metrics. nil allocates a private registry, so instrumentation
	// is always on; pass a shared registry to co-expose other subsystems.
	Metrics *obs.Registry
	// Logger receives structured job-path logs; every line carries
	// trace_id/span_id/job_id/tenant so log streams join against traces
	// and timing records. nil discards (obs.NewLogger builds one).
	Logger *slog.Logger
}

// Server is the HTTP daemon state. Create with New, launch workers with
// Start, and drain with Close.
type Server struct {
	cfg        Config
	jobWorkers int // concurrent job executors
	perJob     int // default core budget per executing job
	metrics    *serviceMetrics
	log        *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // submission order, for listing
	byKey    map[string]*job // live (queued/running) jobs, for coalescing
	finished []finishedRec   // terminal jobs, oldest first, for retention
	closed   bool
	nextID   int

	adm *admission
	wg  sync.WaitGroup
}

// finishedRec is one terminal job in retirement order, stamped with when
// it terminated so TTL expiry can go by age without touching the job's
// own lock.
type finishedRec struct {
	id string
	at time.Time
}

// New validates the config and builds a server. The total worker budget is
// split across the job pool exactly like a sweep splits its budget across
// nested grids: jobWorkers*perJob never exceeds the budget.
func New(cfg Config) *Server {
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxFinishedJobs <= 0 {
		cfg.MaxFinishedJobs = 256
	}
	if cfg.EventKeepalive <= 0 {
		cfg.EventKeepalive = 10 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	jobWorkers, perJob := sim.Split(cfg.Workers, cfg.MaxConcurrentJobs)
	s := &Server{
		cfg:        cfg,
		jobWorkers: jobWorkers,
		perJob:     perJob,
		metrics:    newServiceMetrics(cfg.Metrics),
		log:        logger,
		jobs:       make(map[string]*job),
		byKey:      make(map[string]*job),
		adm:        newAdmission(cfg.QueueDepth, cfg.TenantQuota, jobWorkers),
	}
	s.metrics.registerQueueDepth(func() float64 { return float64(s.adm.depth()) })
	if cfg.Store != nil {
		cfg.Store.Register(cfg.Metrics)
	}
	return s
}

// Start launches the job worker pool.
func (s *Server) Start() {
	for i := 0; i < s.jobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for s.runNext() {
			}
		}()
	}
}

// Close stops accepting submissions, drains every queued and running job,
// and waits for the pool to exit. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.adm.close()
	s.wg.Wait()
}

// runNext executes the next admitted job, blocking until one is available.
// false means the queue is closed and drained — the worker exits.
func (s *Server) runNext() bool {
	j, ok := s.adm.dequeue()
	if !ok {
		return false
	}
	s.metrics.tenantQueue(j.spec.Tenant).Add(-1)
	s.run(j)
	return true
}

// Submit validates and enqueues a spec, returning the (possibly coalesced)
// job status; the bool reports whether the spec coalesced onto a live job.
// A valid parent (the decoded traceparent header) joins the caller's
// trace, and the job's root span nests under the caller's span, which is
// how a coordinator's fleet-wide timeline absorbs worker jobs. A zero
// parent starts a fresh trace whose ID derives from the spec fingerprint
// and the submit sequence — fully deterministic, so replayed submission
// sequences yield byte-stable traces.
func (s *Server) Submit(spec JobSpec, parent trace.SpanContext) (JobStatus, bool, error) {
	if spec.Trials <= 0 {
		spec.Trials = DefaultTrials
	}
	if spec.Seed == nil {
		seed := int64(DefaultSeed)
		spec.Seed = &seed
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if err := validateTenant(spec.Tenant); err != nil {
		return JobStatus{}, false, err
	}
	if spec.Priority < -100 || spec.Priority > 100 {
		return JobStatus{}, false, fmt.Errorf("priority %d out of range [-100, 100]", spec.Priority)
	}
	if _, ok := registry.Lookup(spec.Experiment); !ok {
		return JobStatus{}, false, fmt.Errorf("unknown experiment %q (registered: %s)",
			spec.Experiment, strings.Join(registry.Names(), ", "))
	}
	if _, numShards, err := experiments.ParseShard(spec.Shard); err != nil {
		return JobStatus{}, false, err
	} else if numShards > 1 && (s.cfg.Store == nil || s.cfg.Store.Dir() == "") {
		return JobStatus{}, false, fmt.Errorf("sharded jobs need a disk-backed cache (start the server with -cache-dir) to persist their points")
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, false, errShuttingDown
	}
	key := spec.key()
	if live, ok := s.byKey[key]; ok {
		// Count the join while still holding s.mu (lock order s.mu → j.mu):
		// the job cannot be retired from byKey concurrently, and a job that
		// already reached its terminal state — and froze its timing record —
		// is joined without counting, so create_job_dedupe_joins_total and
		// the timing record's DedupeJoins field always agree.
		live.mu.Lock()
		counted := !terminal(live.state)
		if counted {
			live.dedupeJoins++
		}
		live.mu.Unlock()
		s.mu.Unlock()
		if counted {
			s.metrics.dedupeJoin(spec.Experiment, spec.Tenant)
			s.log.Info("job coalesced onto live job",
				"job_id", live.id, "trace_id", live.rec.TraceID(), "span_id", live.rootSpan,
				"tenant", spec.Tenant, "experiment", spec.Experiment)
		}
		return live.status(), true, nil
	}
	s.nextID++
	// Trace identity: join the remote trace when a valid parent came in,
	// otherwise derive a fresh trace ID from the spec fingerprint and the
	// submit sequence. The span-ID scope folds in the job id and parent so
	// two processes contributing to one trace can never mint colliding IDs.
	id := "job-" + strconv.Itoa(s.nextID)
	traceID := trace.DeriveTraceID(key, s.nextID)
	if parent.Valid() {
		traceID = parent.TraceID
	}
	rec := trace.NewRecorder(traceID, id+"|"+key+"|"+parent.SpanID)
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:       id,
		spec:     spec,
		key:      key,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		created:  now(),
		done:     make(chan struct{}),
		rec:      rec,
		rootSpan: rec.NewSpanID(),
		parent:   parent,
	}
	j.appendEventLocked(StateQueued, "")
	if err := s.adm.enqueue(j); err != nil {
		s.mu.Unlock()
		var ae *AdmissionError
		if errors.As(err, &ae) {
			s.metrics.admissionRejected(spec.Tenant, ae.Reason)
			s.log.Warn("job rejected at admission",
				"tenant", spec.Tenant, "experiment", spec.Experiment,
				"reason", ae.Reason, "retry_after_seconds", ae.RetryAfterSeconds)
		}
		return JobStatus{}, false, err
	}
	s.metrics.tenantQueue(spec.Tenant).Add(1)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byKey[key] = j
	s.mu.Unlock()
	s.log.Info("job queued",
		"job_id", j.id, "trace_id", traceID, "span_id", j.rootSpan,
		"tenant", spec.Tenant, "experiment", spec.Experiment,
		"trials", spec.Trials, "shard", spec.Shard)
	return j.status(), false, nil
}

var errShuttingDown = fmt.Errorf("server is shutting down")

// maxTenantLen bounds the tenant field. Tenant values become Prometheus
// label values and dedupe-key components, so they must stay short and
// well-formed; docs/METRICS.md states the cardinality contract.
const maxTenantLen = 64

// validateTenant enforces the tenant charset ([a-zA-Z0-9_.-]) and length
// cap, rejecting arbitrary client strings before they can become metric
// labels.
func validateTenant(t string) error {
	if len(t) > maxTenantLen {
		return fmt.Errorf("tenant exceeds %d bytes", maxTenantLen)
	}
	for _, r := range t {
		ok := r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("tenant %q contains %q; allowed characters are [a-zA-Z0-9_.-]", t, r)
		}
	}
	return nil
}

// Job returns a job's status by id.
func (s *Server) Job(id string) (JobStatus, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// lookup returns a job by id. Finished jobs past the TTL are forgotten
// first, so an expired job is never served.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictFinishedLocked(now())
	j, ok := s.jobs[id]
	return j, ok
}

// run executes one job on a pool worker.
func (s *Server) run(j *job) {
	d, _ := registry.Lookup(j.spec.Experiment) // validated at submit
	opt := experiments.Options{Trials: j.spec.Trials, Seed: *j.spec.Seed, Workers: s.perJob, Ctx: j.ctx}
	if j.spec.Workers > 0 && j.spec.Workers < s.perJob {
		opt.Workers = j.spec.Workers
	}
	opt.Shard, opt.NumShards, _ = experiments.ParseShard(j.spec.Shard) // validated at submit

	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled between dequeue and run: finish has settled it already.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = now()
	j.appendEventLocked(StateRunning, "")
	j.mu.Unlock()
	s.metrics.inflight.Add(1)
	s.log.Info("job started", j.logAttrs()...)

	// Cache-aware planning before compute: the plan is surfaced in the
	// status and the event stream, so clients see upfront whether the job
	// will be served from cache.
	plan := registry.PlanFor(d, s.cfg.Env, opt)
	j.mu.Lock()
	j.plan = &plan
	j.planned = now()
	j.appendEventLocked(StateRunning, fmt.Sprintf("planned: %d grid points, %d cached, %d to compute",
		plan.GridPoints, plan.Cached, plan.ToCompute))
	j.mu.Unlock()
	s.log.Info("job planned", append(j.logAttrs(),
		"grid_points", plan.GridPoints, "cached", plan.Cached, "to_compute", plan.ToCompute)...)

	var hits0, misses0 int64
	if s.cfg.Store != nil {
		hits0, misses0 = s.cfg.Store.Hits(), s.cfg.Store.Misses()
	}

	var buf bytes.Buffer
	var rows any
	var computedAt time.Time
	err := experiments.Guard(d.Name, func() {
		res := d.Run(s.cfg.Env, opt)
		computedAt = now() // grid fully computed/replayed; render next
		res.Render(&buf)
		rows = res.Rows
	})

	var delta *CacheDelta
	if s.cfg.Store != nil {
		delta = &CacheDelta{
			Hits:   s.cfg.Store.Hits() - hits0,
			Misses: s.cfg.Store.Misses() - misses0,
		}
	}

	j.mu.Lock()
	j.computed, j.delta = computedAt, delta
	switch {
	case errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, "canceled", "canceled at a grid-point boundary")
	case err != nil:
		s.finish(j, StateFailed, err.Error(), err.Error())
	default:
		j.output, j.rows = buf.Bytes(), rows
		msg := fmt.Sprintf("rendered %d bytes", len(j.output))
		if delta != nil {
			msg += fmt.Sprintf(" (%d cache hits, %d computed)", delta.Hits, delta.Misses)
		}
		s.finish(j, StateDone, "", msg)
	}
}

// finish is a job's one terminal transition, shared by run and the
// cancel-while-queued path. The caller holds j.mu, has checked that the
// job is not yet terminal, and hands the lock over. finish stamps the
// terminal state, its event, the timing record and the span tree, then
// settles every per-job account — the dedupe slot and retention, the
// in-flight gauge, the tenant's quota slot — and closes done last, so a
// closed done means the job is fully settled.
func (s *Server) finish(j *job, state State, errMsg, eventMsg string) {
	wasRunning := j.state == StateRunning
	j.state, j.err = state, errMsg
	j.finished = now()
	j.appendEventLocked(state, eventMsg)
	tm := j.buildTimingLocked()
	j.buildTraceLocked()
	delta := j.delta
	j.mu.Unlock()

	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
	if wasRunning {
		s.metrics.inflight.Add(-1)
	}
	s.adm.release(j.spec.Tenant)

	s.metrics.jobTerminal(j.spec.Experiment, j.spec.Tenant, state)
	s.metrics.observeStages(tm)
	if delta != nil {
		s.metrics.points(delta.Hits, delta.Misses)
	}
	attrs := append(j.logAttrs(), "outcome", string(state), "total_seconds", tm.TotalSeconds)
	if delta != nil {
		attrs = append(attrs, "cache_hits", delta.Hits, "computed_points", delta.Misses)
	}
	if state == StateFailed {
		s.log.Error("job finished", append(attrs, "error", errMsg)...)
	} else {
		s.log.Info("job finished", attrs...)
	}
	j.cancel() // release the context's resources
	close(j.done)
}

// buildTimingLocked assembles the flat stage-timing record from the
// timestamps run stamped at each boundary. Caller holds j.mu and has
// already set the terminal state; unreached stages stay zero.
func (j *job) buildTimingLocked() *obs.JobTiming {
	tm := &obs.JobTiming{
		Job:         j.id,
		Experiment:  j.spec.Experiment,
		Tenant:      j.spec.Tenant,
		Shard:       j.spec.Shard,
		Outcome:     string(j.state),
		QueuedAt:    j.created,
		StartedAt:   j.started,
		PlannedAt:   j.planned,
		ComputedAt:  j.computed,
		DedupeJoins: j.dedupeJoins,
	}
	if j.state == StateDone {
		tm.RenderedAt = j.finished
	}
	if j.plan != nil {
		tm.GridPoints = j.plan.GridPoints
	}
	if j.delta != nil {
		tm.CacheHits = int(j.delta.Hits)
		tm.ComputedPoints = int(j.delta.Misses)
	}
	tm.Finalize()
	j.timing = tm
	return tm
}

// retireLocked moves a job that just reached a terminal state into
// retention: the dedupe slot is released — later identical submissions
// re-run (and are served from cache) rather than returning this
// historical job — and the oldest finished jobs past the count cap or the
// TTL are forgotten. Caller holds s.mu.
func (s *Server) retireLocked(j *job) {
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.finished = append(s.finished, finishedRec{id: j.id, at: now()})
	s.evictFinishedLocked(now())
}

// evictFinishedLocked enforces finished-job retention: the count cap
// always, and — when a TTL is configured — age expiry against now. Caller
// holds s.mu.
func (s *Server) evictFinishedLocked(now time.Time) {
	expired := func(rec finishedRec) bool {
		if len(s.finished) > s.cfg.MaxFinishedJobs {
			return true
		}
		return s.cfg.FinishedJobTTL > 0 && now.Sub(rec.at) > s.cfg.FinishedJobTTL
	}
	for len(s.finished) > 0 && expired(s.finished[0]) {
		evict := s.finished[0].id
		s.finished = s.finished[1:]
		delete(s.jobs, evict)
		for i, id := range s.order {
			if id == evict {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// Cancel requests cancellation of a job. Queued jobs terminate
// immediately (a worker that already dequeued one skips it); running jobs
// have their context canceled and stop at the next grid-point boundary.
// The bool reports whether the call changed anything — false means the
// job was already terminal.
func (s *Server) Cancel(id string) (JobStatus, bool, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, false, fmt.Errorf("no such job")
	}
	j.mu.Lock()
	switch {
	case terminal(j.state):
		j.mu.Unlock()
		return j.status(), false, nil
	case j.state == StateRunning:
		j.appendEventLocked(StateRunning, "cancel requested; stopping at the next grid point")
		j.mu.Unlock()
		j.cancel()
		s.log.Info("job cancel requested", j.logAttrs()...)
		return j.status(), true, nil
	default: // queued
		// Pull the job out of the admission queue while it is still there;
		// if a worker already dequeued it, run sees the canceled state and
		// skips it.
		if s.adm.remove(j) {
			s.metrics.tenantQueue(j.spec.Tenant).Add(-1)
		}
		s.finish(j, StateCanceled, "canceled", "canceled while queued")
		return j.status(), true, nil
	}
}

// ---------------------------------------------------------------------------
// HTTP layer.

// Handler routes the service API. Every route is wrapped in the
// request-metrics middleware; the pattern string doubles as the `route`
// label, so the label space is fixed at compile time (no per-path
// cardinality).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/jobs/{id}/events", s.handleEvents)
	handle("GET /v1/jobs/{id}/result", s.handleResult)
	handle("GET /v1/jobs/{id}/timing", s.handleTiming)
	handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	handle("GET /v1/cache/stats", s.handleCacheStats)
	handle("POST /v1/cache/export", s.handleCacheExport)
	handle("POST /v1/cache/import", s.handleCacheImport)
	handle("GET /v1/experiments", s.handleExperiments)
	handle("GET /metrics", s.cfg.Metrics.Handler().ServeHTTP)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /v1/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	// A well-formed traceparent header joins this job to the caller's
	// trace (the coordinator fleet path); a missing or malformed header
	// silently starts a fresh trace, per W3C trace-context semantics.
	parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	st, deduped, err := s.Submit(spec, parent)
	var ae *AdmissionError
	switch {
	case errors.As(err, &ae):
		// Admission rejections carry a machine-readable reason and a
		// depth-proportional Retry-After hint, so a polite client (the
		// coordinator's request retry, say) can back off exactly as long
		// as the queue needs.
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSeconds))
		writeJSON(w, ae.Status, map[string]any{
			"error":               ae.Error(),
			"reason":              ae.Reason,
			"retry_after_seconds": ae.RetryAfterSeconds,
		})
		return
	case err == errShuttingDown:
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st.Deduped = deduped
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	s.evictFinishedLocked(now())
	out := make([]JobStatus, 0, len(s.order))
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range js {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams a job's progress as NDJSON: the recorded history
// first, then live transitions until the job terminates and is settled, or
// the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Keepalive cadence is counted in poll ticks rather than clock reads,
	// so an idle stream emits {"keepalive":true} lines without consuming
	// the fake-clock seam the timing tests pin.
	const pollTick = 100 * time.Millisecond
	keepaliveTicks := int(s.cfg.EventKeepalive / pollTick)
	if keepaliveTicks < 1 {
		keepaliveTicks = 1
	}
	next, idleTicks := 0, 0
	for {
		evs, terminal := j.eventsSince(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if len(evs) > 0 {
			idleTicks = 0
			if flusher != nil {
				flusher.Flush()
			}
		}
		if terminal {
			<-j.done // end the stream only once finish has settled the job
			return
		}
		if idleTicks >= keepaliveTicks {
			idleTicks = 0
			if _, err := io.WriteString(w, "{\"keepalive\":true}\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// Loop once more to drain the terminal events.
		case <-time.After(pollTick):
			idleTicks++
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, errMsg, output, rows := j.state, j.err, j.output, j.rows
	j.mu.Unlock()
	switch state {
	case StateFailed:
		writeError(w, http.StatusConflict, "job failed: "+errMsg)
		return
	case StateCanceled:
		writeError(w, http.StatusConflict, "job was canceled")
		return
	case StateQueued, StateRunning:
		writeError(w, http.StatusConflict, "job is "+string(state)+"; poll until done")
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, map[string]any{
			"experiment": j.spec.Experiment,
			"rows":       rows,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(output)
}

// handleCancel is DELETE /v1/jobs/{id}: queued jobs dequeue immediately,
// running jobs stop at the next grid-point boundary (202 — poll for the
// canceled state), already-terminal jobs are a 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, changed, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !changed {
		writeError(w, http.StatusConflict, "job already "+string(st.State))
		return
	}
	code := http.StatusOK
	if st.State == StateRunning {
		code = http.StatusAccepted // cancellation lands at the next grid point
	}
	writeJSON(w, code, st)
}

// handleCacheExport streams cache entries as NDJSON (the format
// Store.ImportFrom and the coordinator's shard pull consume). The
// optional JSON body {"keys": [...]} restricts the export to a manifest;
// an empty body exports everything. Requires a disk-backed cache.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Store
	if st == nil || st.Dir() == "" {
		writeError(w, http.StatusConflict, "cache export needs a disk-backed cache (start the server with -cache-dir)")
		return
	}
	var req struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad export request: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Errors past this point cut the stream; the importer's validation
	// rejects the truncated tail.
	n, _ := st.ExportTo(w, req.Keys)
	pc, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	s.log.Info("cache export served",
		"entries", n, "keys_requested", len(req.Keys),
		"trace_id", pc.TraceID, "span_id", pc.SpanID)
}

// handleCacheImport lands an NDJSON entry stream (ExportTo's format) into
// the shared cache — the pre-warm path a coordinator uses to ship points
// it already holds to a worker. Every record is validated against its
// content address before it is written.
func (s *Server) handleCacheImport(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Store
	if st == nil {
		writeError(w, http.StatusConflict, "no cache attached")
		return
	}
	n, err := st.ImportFrom(r.Body)
	pc, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil {
		s.log.Error("cache import failed",
			"entries", n, "error", err.Error(),
			"trace_id", pc.TraceID, "span_id", pc.SpanID)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("import failed after %d entries: %v", n, err))
		return
	}
	s.log.Info("cache import landed",
		"entries", n, "trace_id", pc.TraceID, "span_id", pc.SpanID)
	writeJSON(w, http.StatusOK, map[string]any{"imported": n})
}

// handleTiming serves a job's flat stage-timing record. The record is
// built exactly once, at the terminal transition; polling a live job is a
// 409, like /result.
func (s *Server) handleTiming(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	tm, state := j.timing, j.state
	j.mu.Unlock()
	if tm == nil {
		writeError(w, http.StatusConflict, "job is "+string(state)+"; timing is recorded when it terminates")
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, obs.TimingCSVHeader)
		fmt.Fprintln(w, tm.CSVRow())
		return
	}
	writeJSON(w, http.StatusOK, tm)
}

// handleCacheStats reports the store's accounting snapshot — the same
// counters Register exposes on /metrics, so the two surfaces can't drift.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	st := s.cfg.Store
	if st == nil {
		writeError(w, http.StatusNotFound, "no cache attached")
		return
	}
	writeJSON(w, http.StatusOK, st.Stats())
}

// handleExperiments lists the registry with a cache plan per experiment at
// the requested (trials, seed) scale — the "which figures are already free"
// view.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	opt := experiments.Options{Trials: DefaultTrials, Seed: DefaultSeed}
	if v := r.URL.Query().Get("trials"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			opt.Trials = n
		}
	}
	if v := r.URL.Query().Get("seed"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			opt.Seed = n
		}
	}
	type entry struct {
		Name  string        `json:"name"`
		Title string        `json:"title"`
		Plan  registry.Plan `json:"plan"`
	}
	var out []entry
	for _, d := range registry.All() {
		out = append(out, entry{Name: d.Name, Title: d.Title, Plan: registry.PlanFor(d, s.cfg.Env, opt)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"trials": opt.Trials, "seed": opt.Seed, "experiments": out})
}

// handleHealthz serves liveness plus the lightweight load snapshot the
// coordinator's worker probes read: queue depth, in-flight jobs, and cache
// accounting. Served on both /healthz (the original liveness path) and
// /v1/healthz (the probe path).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := map[string]any{
		"status":      "ok",
		"job_workers": s.jobWorkers,
		"per_job":     s.perJob,
		"queue_depth": s.adm.depth(),
		"inflight":    s.metrics.inflight.Value(),
	}
	if s.cfg.Store != nil {
		h["cache"] = s.cfg.Store.Stats()
	}
	writeJSON(w, http.StatusOK, h)
}
