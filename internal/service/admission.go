package service

import (
	"fmt"
	"net/http"
	"sync"
)

// admission is the per-tenant weighted-fair submission queue that replaced
// the single FIFO channel: each tenant owns its own queue (priority-ordered,
// FIFO among equals), workers drain tenants in deterministic round-robin
// rotation so no tenant can starve another by submitting faster, and a
// per-tenant quota on queued+running jobs turns a hostile tenant's flood
// into 429s for that tenant alone instead of 503s for everyone.
//
// Admission decisions are deterministic given the submission sequence: the
// rotation order is arrival order of tenants with queued work, and within a
// tenant, higher JobSpec.Priority drains first with ties broken by
// submission order. No clock and no randomness are involved, so a replayed
// submission sequence dequeues in exactly the same order.
type admission struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	maxDepth int // total queued jobs across tenants (the old QueueDepth bound)
	quota    int // per-tenant cap on queued+running jobs; 0 = unlimited
	workers  int // pool size, for the depth-proportional Retry-After hint

	total  int                     // queued jobs across all tenants
	queues map[string]*tenantQueue // tenants with queued jobs
	rr     []string                // round-robin rotation of tenants with queued jobs
	inUse  map[string]int          // queued+running jobs per tenant (the quota base)
}

// tenantQueue is one tenant's pending jobs, highest priority first and
// FIFO within a priority level.
type tenantQueue struct {
	jobs []*job
}

func newAdmission(maxDepth, quota, workers int) *admission {
	a := &admission{
		maxDepth: maxDepth,
		quota:    quota,
		workers:  workers,
		queues:   make(map[string]*tenantQueue),
		inUse:    make(map[string]int),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// AdmissionError is a rejected submission: the HTTP layer maps it to its
// status code, sets a Retry-After header from the hint, and serializes the
// reason so clients (and the coordinator's retry backoff) can tell a full
// queue from an exhausted tenant quota.
type AdmissionError struct {
	// Status is the HTTP status the rejection maps to: 429 for
	// tenant_quota, 503 for queue_full.
	Status int
	// Reason labels the rejection in metrics and response bodies:
	// "tenant_quota" or "queue_full".
	Reason string
	// RetryAfterSeconds is the depth-proportional backoff hint served in
	// the Retry-After header (always >= 1).
	RetryAfterSeconds int
	msg               string
}

func (e *AdmissionError) Error() string { return e.msg }

// maxRetryAfterHint caps the advisory backoff so a deep queue never tells
// clients to go away for minutes.
const maxRetryAfterHint = 60

// enqueue admits j or rejects it with an *AdmissionError. The quota counts
// queued+running jobs, so a tenant cannot sidestep it by keeping jobs
// in flight; dedupe-coalesced submissions never reach here and are
// therefore always admitted.
func (a *admission) enqueue(j *job) error {
	tenant := j.spec.Tenant
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.quota > 0 && a.inUse[tenant] >= a.quota {
		hint := 1 + a.inUse[tenant]
		if hint > maxRetryAfterHint {
			hint = maxRetryAfterHint
		}
		return &AdmissionError{
			Status: http.StatusTooManyRequests, Reason: "tenant_quota",
			RetryAfterSeconds: hint,
			msg: fmt.Sprintf("tenant %q has %d job(s) queued or running, at its quota of %d",
				tenant, a.inUse[tenant], a.quota),
		}
	}
	if a.total >= a.maxDepth {
		// Hint proportionally to how many pool passes it takes to drain the
		// backlog: depth jobs over `workers` executors.
		hint := 1 + a.total/max(1, a.workers)
		if hint > maxRetryAfterHint {
			hint = maxRetryAfterHint
		}
		return &AdmissionError{
			Status: http.StatusServiceUnavailable, Reason: "queue_full",
			RetryAfterSeconds: hint,
			msg:               fmt.Sprintf("job queue is full (%d queued)", a.total),
		}
	}
	q := a.queues[tenant]
	if q == nil {
		q = &tenantQueue{}
		a.queues[tenant] = q
		a.rr = append(a.rr, tenant)
	}
	// Insert after the last job with priority >= this one: priority order,
	// submission order among equals.
	i := len(q.jobs)
	for i > 0 && q.jobs[i-1].spec.Priority < j.spec.Priority {
		i--
	}
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
	a.total++
	a.inUse[tenant]++
	a.cond.Signal()
	return nil
}

// dequeue blocks until a job is available or the queue is closed and
// drained (ok=false — the worker exits). The head-of-rotation tenant
// yields its highest-priority job, then rotates to the back of the line,
// so tenants interleave one job at a time whatever their backlog sizes.
func (a *admission) dequeue() (*job, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.total == 0 {
		if a.closed {
			return nil, false
		}
		a.cond.Wait()
	}
	tenant := a.rr[0]
	q := a.queues[tenant]
	j := q.jobs[0]
	q.jobs = q.jobs[1:]
	a.total--
	if len(q.jobs) == 0 {
		delete(a.queues, tenant)
		a.rr = a.rr[1:]
	} else {
		a.rr = append(a.rr[1:], tenant)
	}
	// The job leaves the queue but stays in the tenant's quota (it is about
	// to run); release settles the account when it reaches a terminal state.
	return j, true
}

// remove takes a still-queued job out of its tenant's queue (the
// cancel-while-queued path). false means a worker already dequeued it. The
// job keeps its quota slot either way; release settles it.
func (a *admission) remove(j *job) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	tenant := j.spec.Tenant
	q := a.queues[tenant]
	if q == nil {
		return false
	}
	for i, queued := range q.jobs {
		if queued != j {
			continue
		}
		q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
		a.total--
		if len(q.jobs) == 0 {
			delete(a.queues, tenant)
			for k, t := range a.rr {
				if t == tenant {
					a.rr = append(a.rr[:k], a.rr[k+1:]...)
					break
				}
			}
		}
		return true
	}
	return false
}

// release returns one of tenant's quota slots, dropping the tenant's
// entry once it holds none so the map does not grow with tenant churn.
// The job's terminal transition (Server.finish) calls it exactly once per
// admitted job, so a count never goes negative.
func (a *admission) release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inUse[tenant]--
	if a.inUse[tenant] == 0 {
		delete(a.inUse, tenant)
	}
}

// close wakes every blocked worker; they drain the remaining queued jobs
// and then exit — the graceful-shutdown contract the channel queue had.
func (a *admission) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// depth reports the total queued jobs (the create_queue_depth gauge).
func (a *admission) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}
