package dispatch

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"github.com/embodiedai/create/internal/obs/trace"
)

//create:walltime-ok probe backoff sleeps and health-check deadlines are failure-path operational timing; figure bytes come from the deterministic replay

// HealthChecker is implemented by runners that can be probed for recovery
// after a shard failure. A runner without it (LocalRunner: an in-process
// panic does not heal) is retired on first failure, exactly as before
// probation existed.
type HealthChecker interface {
	// CheckHealth reports whether the worker is serving again. It must be
	// cheap and side-effect free — the coordinator calls it repeatedly
	// while the worker is in probation.
	CheckHealth(ctx context.Context) error
}

// HealthConfig governs probation: what happens to a runner after it fails
// a shard. Instead of being retired outright, a probeable runner enters
// probation and is health-checked with capped exponential backoff; enough
// consecutive successes readmit it to the pool, exhausting the probe
// budget retires it for good. Runners that cannot be probed, and members
// already draining, retire on their first failure. The zero value is the
// defaults below.
type HealthConfig struct {
	// MaxProbes bounds the total health checks spent on one probation
	// episode (default 6).
	MaxProbes int
	// Successes is how many consecutive healthy probes readmit the worker
	// (default 2) — one lucky response must not resurrect a flapping box.
	Successes int
	// BaseDelay seeds the exponential backoff between probes (default
	// 250ms); MaxDelay caps it (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// probeTimeout bounds each individual health check.
const probeTimeout = 2 * time.Second

func (h HealthConfig) withDefaults() HealthConfig {
	if h.MaxProbes <= 0 {
		h.MaxProbes = 6
	}
	if h.Successes <= 0 {
		h.Successes = 2
	}
	if h.BaseDelay <= 0 {
		h.BaseDelay = 250 * time.Millisecond
	}
	if h.MaxDelay <= 0 {
		h.MaxDelay = 5 * time.Second
	}
	return h
}

// memberState is one pool member's scheduling eligibility.
type memberState int

const (
	memberIdle memberState = iota
	memberBusy
	memberProbation
	memberRetired
	memberDrained
)

func (s memberState) String() string {
	switch s {
	case memberIdle:
		return "idle"
	case memberBusy:
		return "busy"
	case memberProbation:
		return "probation"
	case memberRetired:
		return "retired"
	case memberDrained:
		return "drained"
	}
	return "unknown"
}

// member is one runner's slot in the live pool. All fields are guarded by
// Coordinator.poolMu (never c.mu: metric helpers lock c.mu, and they are
// called while pool decisions are in flight).
type member struct {
	runner Runner
	state  memberState
	// drain marks a worker asked to leave: it finishes its in-flight
	// shard (or probation episode) and is then excluded from dispatch.
	drain bool
}

// WorkerInfo is one pool member as reported by Workers() and the
// /v1/workers admin endpoint.
type WorkerInfo struct {
	Label    string `json:"label"`
	State    string `json:"state"`
	Draining bool   `json:"draining,omitempty"`
}

// startPool snapshots c.Runners into the live member pool for one Execute
// and sets the healthy gauge to its size. Both happen under poolMu, so a
// concurrent AddRunner lands either in the snapshot or as a late join that
// counts itself. (Taking mu under poolMu is safe: nothing holding mu takes
// poolMu.)
func (c *Coordinator) startPool() error {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.poolOn {
		return fmt.Errorf("coordinator is already executing a plan")
	}
	if len(c.Runners) == 0 {
		return fmt.Errorf("coordinator has no runners")
	}
	c.pool = make([]*member, 0, len(c.Runners))
	for _, r := range c.Runners {
		c.pool = append(c.pool, &member{runner: r, state: memberIdle})
	}
	if c.wake == nil {
		c.wake = make(chan struct{}, 1)
	}
	c.poolOn = true
	c.healthyWorkers().Set(int64(len(c.pool)))
	return nil
}

func (c *Coordinator) stopPool() {
	c.poolMu.Lock()
	c.poolOn = false
	c.poolMu.Unlock()
}

// wakePool nudges Execute's scheduling loop after a membership change
// (readmit, join, drain). Capacity-1 nonblocking send: coalesced signals
// are fine, the loop re-examines the whole pool on every wake.
func (c *Coordinator) wakePool() {
	c.poolMu.Lock()
	ch := c.wake
	c.poolMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// claimIdle marks the first idle, non-draining member busy and returns it.
// Scanning in pool order keeps the dispatch order of the pre-pool
// scheduler (runner i gets shard i of the heaviest-first queue).
func (c *Coordinator) claimIdle() (*member, bool) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	for _, m := range c.pool {
		if m.state == memberIdle && !m.drain {
			m.state = memberBusy
			return m, true
		}
	}
	return nil, false
}

// releaseMember returns a busy member to the idle set after a successful
// shard — or completes its drain, if one was requested mid-shard.
func (c *Coordinator) releaseMember(m *member) {
	c.poolMu.Lock()
	drained := m.drain
	if drained {
		m.state = memberDrained
	} else {
		m.state = memberIdle
	}
	label := m.runner.Label()
	c.poolMu.Unlock()
	if drained {
		c.healthyWorkers().Add(-1)
		c.countDrained(label)
		c.log().Info("worker drained: in-flight shard finished, leaving the pool", "worker", label)
	}
	c.wakePool()
}

// poolHope reports how many members could still take work: idle now, or
// in probation (might be readmitted). When both are zero with shards
// pending and nothing in flight, the run is unrecoverable.
func (c *Coordinator) poolHope() (idle, probation int) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	for _, m := range c.pool {
		switch m.state {
		case memberIdle:
			if !m.drain {
				idle++
			}
		case memberProbation:
			probation++
		}
	}
	return idle, probation
}

// handleFailure decides a failed member's fate: probation with a probe
// goroutine when the runner is probeable, immediate retirement when it is
// not (LocalRunner) or was already draining.
func (c *Coordinator) handleFailure(m *member, health HealthConfig, rec *trace.Recorder, probeCtx context.Context, probeWG *sync.WaitGroup) {
	hc, probeable := m.runner.(HealthChecker)
	label := m.runner.Label()
	c.poolMu.Lock()
	if !probeable || m.drain {
		m.state = memberRetired
		c.poolMu.Unlock()
		c.healthyWorkers().Add(-1)
		c.countRetired()
		c.wakePool()
		return
	}
	m.state = memberProbation
	c.poolMu.Unlock()
	c.healthyWorkers().Add(-1)
	c.probationWorkers().Add(1)
	c.log().Warn("worker entering probation",
		"worker", label, "max_probes", health.MaxProbes)
	probeWG.Add(1)
	go c.probeMember(probeCtx, m, hc, health, rec, probeWG)
}

// probeMember is one probation episode: health-check the member with
// capped exponential backoff and deterministic jitter until Successes
// consecutive OKs readmit it, MaxProbes attempts retire it, or the run
// ends. One "probation <label>" span records the episode — clock reads
// here are failure-path only, so the happy path's fake-clock arithmetic
// is untouched.
func (c *Coordinator) probeMember(ctx context.Context, m *member, hc HealthChecker, health HealthConfig, rec *trace.Recorder, wg *sync.WaitGroup) {
	defer wg.Done()
	label := m.runner.Label()
	start := now()
	streak, probes, fails := 0, 0, 0
	readmitted := false
	var lastErr error
	for probes < health.MaxProbes {
		if !sleepCtx(ctx, probeBackoff(health.BaseDelay, health.MaxDelay, label, fails)) {
			break
		}
		probes++
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := hc.CheckHealth(pctx)
		cancel()
		if err != nil {
			lastErr = err
			streak = 0
			fails++
			c.countProbe(label, "fail")
			continue
		}
		c.countProbe(label, "ok")
		streak++
		fails = 0
		if streak >= health.Successes {
			readmitted = true
			break
		}
	}

	c.poolMu.Lock()
	drained := m.drain
	switch {
	case drained:
		m.state = memberDrained
	case readmitted:
		m.state = memberIdle
	default:
		m.state = memberRetired
	}
	c.poolMu.Unlock()

	c.probationWorkers().Add(-1)
	outcome := "retired"
	switch {
	case drained:
		outcome = "drained"
		c.countDrained(label)
	case readmitted:
		outcome = "readmitted"
		c.healthyWorkers().Add(1)
		c.countReadmitted(label)
	default:
		c.countRetired()
	}
	attrs := map[string]string{
		"node": "coordinator", "worker": label,
		"probes": strconv.Itoa(probes), "outcome": outcome,
	}
	if lastErr != nil {
		attrs["error"] = lastErr.Error()
	}
	rec.Record(trace.Span{
		TraceID: rec.TraceID(), SpanID: rec.NewSpanID(), ParentID: c.rootSpanID(),
		Name: "probation " + label, Start: start, End: now(), Attrs: attrs,
	})
	if readmitted && !drained {
		c.log().Info("worker readmitted from probation",
			"worker", label, "probes", probes)
	} else {
		c.log().Warn("worker left probation without readmission",
			"worker", label, "outcome", outcome, "probes", probes)
	}
	c.wakePool()
}

// probeBackoff is the delay before the next probe given `fails`
// consecutive failures: base doubled per failure, capped at max, with
// deterministic jitter in [d/2, d) from an FNV-1a hash of (key, fails) —
// reproducible given the config, and no global math/rand state.
func probeBackoff(base, max time.Duration, key string, fails int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, fails)
	frac := time.Duration(h.Sum64() & 1023)
	return d/2 + d/2*frac/1024
}

// sleepCtx waits d unless ctx ends first, reporting whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ---------------------------------------------------------------------------
// Dynamic membership: workers join and leave a live pool.

// AddRunner adds a worker to the pool. During an Execute the new worker
// is immediately eligible for pending shards (late join); a worker whose
// label matches a retired or drained member rejoins in its place.
// Between runs it lands in Runners for the next Execute. A label already
// active in the pool is rejected.
func (c *Coordinator) AddRunner(r Runner) error {
	label := r.Label()
	c.poolMu.Lock()
	if c.poolOn {
		for _, m := range c.pool {
			if m.runner.Label() != label {
				continue
			}
			if m.state != memberRetired && m.state != memberDrained {
				c.poolMu.Unlock()
				return fmt.Errorf("worker %q is already in the pool", label)
			}
			// Rejoin: the replacement runner takes over the dead member's
			// slot (kill-then-revive, or an operator re-adding a drained
			// box).
			m.runner = r
			m.state = memberIdle
			m.drain = false
			c.replaceRunnerLocked(label, r)
			c.poolMu.Unlock()
			c.healthyWorkers().Add(1)
			c.countJoined(label)
			c.wakePool()
			return nil
		}
		c.pool = append(c.pool, &member{runner: r, state: memberIdle})
		c.replaceRunnerLocked(label, r)
		c.poolMu.Unlock()
		c.healthyWorkers().Add(1)
		c.countJoined(label)
		c.wakePool()
		return nil
	}
	for _, ex := range c.Runners {
		if ex.Label() == label {
			c.poolMu.Unlock()
			return fmt.Errorf("worker %q is already in the pool", label)
		}
	}
	c.Runners = append(c.Runners, r)
	c.poolMu.Unlock()
	c.countJoined(label)
	return nil
}

// replaceRunnerLocked keeps c.Runners mirroring the pool across joins:
// same-label entries are replaced, new labels appended. Caller holds
// poolMu.
func (c *Coordinator) replaceRunnerLocked(label string, r Runner) {
	for i, ex := range c.Runners {
		if ex.Label() == label {
			c.Runners[i] = r
			return
		}
	}
	c.Runners = append(c.Runners, r)
}

// DrainRunner asks the labeled worker to leave the pool. An idle worker
// leaves immediately; a busy one finishes its in-flight shard first (its
// staged results still merge); one in probation leaves when the episode
// settles. The worker is removed from Runners either way, so the next
// Execute excludes it.
func (c *Coordinator) DrainRunner(label string) error {
	c.poolMu.Lock()
	removed := false
	for i, r := range c.Runners {
		if r.Label() == label {
			c.Runners = append(c.Runners[:i], c.Runners[i+1:]...)
			removed = true
			break
		}
	}
	if !c.poolOn {
		c.poolMu.Unlock()
		if !removed {
			return fmt.Errorf("no worker %q in the pool", label)
		}
		c.countDrained(label)
		return nil
	}
	for _, m := range c.pool {
		if m.runner.Label() != label {
			continue
		}
		switch m.state {
		case memberIdle:
			m.state = memberDrained
			c.poolMu.Unlock()
			c.healthyWorkers().Add(-1)
			c.countDrained(label)
			c.wakePool()
			return nil
		case memberBusy, memberProbation:
			m.drain = true
			c.poolMu.Unlock()
			c.log().Info("worker draining: will leave after its in-flight work", "worker", label)
			return nil
		default: // already retired or drained
			c.poolMu.Unlock()
			return nil
		}
	}
	c.poolMu.Unlock()
	if !removed {
		return fmt.Errorf("no worker %q in the pool", label)
	}
	return nil
}

// Workers reports every pool member and its state — the live pool during
// an Execute, the configured Runners between runs.
func (c *Coordinator) Workers() []WorkerInfo {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.poolOn {
		out := make([]WorkerInfo, 0, len(c.pool))
		for _, m := range c.pool {
			out = append(out, WorkerInfo{Label: m.runner.Label(), State: m.state.String(), Draining: m.drain})
		}
		return out
	}
	out := make([]WorkerInfo, 0, len(c.Runners))
	for _, r := range c.Runners {
		out = append(out, WorkerInfo{Label: r.Label(), State: memberIdle.String()})
	}
	return out
}
