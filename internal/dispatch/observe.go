package dispatch

import (
	"github.com/embodiedai/create/internal/obs"
)

// reg returns the coordinator's metric registry, creating a private one on
// first use so dispatch accounting is always collected; cmd/create-coordinator
// injects a registry to surface it (-metrics-out), and tests read it back.
func (c *Coordinator) reg() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c.Metrics
}

// Dispatch metric helpers. All counters live at shard granularity — one
// increment per dispatch/retry/merge decision — far off the episode hot
// path.

func (c *Coordinator) countShard(state string) {
	c.reg().Counter("create_dispatch_shards_total",
		"Shard scheduling decisions by state: free (never dispatched), dispatched, requeued, completed.",
		"state", state).Inc()
}

func (c *Coordinator) countAttempt(selector string) {
	c.reg().Counter("create_dispatch_shard_attempts_total",
		"Dispatch attempts per shard selector; >1 means the shard was retried after worker loss.",
		"shard", selector).Inc()
}

func (c *Coordinator) countRetry(worker string) {
	c.reg().Counter("create_dispatch_retries_total",
		"Shard failures by worker; each one re-queues the shard and sends the worker to probation (or retires it).",
		"worker", worker).Inc()
}

// countRetired accounts a runner leaving the pool for good: probation
// exhausted, or the runner is not probeable.
func (c *Coordinator) countRetired() {
	c.reg().Counter("create_dispatch_workers_retired_total",
		"Runners retired from the pool: probation exhausted, or runner not probeable.").Inc()
}

// countProbe accounts one probation health check, outcome "ok" or "fail".
func (c *Coordinator) countProbe(worker, outcome string) {
	c.reg().Counter("create_dispatch_probes_total",
		"Health probes sent to workers in probation, by worker and outcome (ok, fail).",
		"worker", worker, "outcome", outcome).Inc()
}

func (c *Coordinator) countReadmitted(worker string) {
	c.reg().Counter("create_dispatch_workers_readmitted_total",
		"Workers that recovered during probation and rejoined the dispatch pool.",
		"worker", worker).Inc()
}

func (c *Coordinator) countJoined(worker string) {
	c.reg().Counter("create_dispatch_workers_joined_total",
		"Workers added to the pool at runtime (dynamic membership).",
		"worker", worker).Inc()
}

func (c *Coordinator) countDrained(worker string) {
	c.reg().Counter("create_dispatch_workers_drained_total",
		"Workers that finished their in-flight work and left the pool on request.",
		"worker", worker).Inc()
}

func (c *Coordinator) countMergedEntries(n int) {
	c.reg().Counter("create_dispatch_merged_entries_total",
		"Cache entries merged back from completed shards.").Add(int64(n))
}

func (c *Coordinator) healthyWorkers() *obs.Gauge {
	return c.reg().Gauge("create_dispatch_workers_healthy",
		"Runners currently eligible for shard dispatch.")
}

func (c *Coordinator) probationWorkers() *obs.Gauge {
	return c.reg().Gauge("create_dispatch_workers_probation",
		"Runners currently in probation, being health-probed for readmission.")
}
