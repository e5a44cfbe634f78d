// Package dispatch is the shard planning and fan-out tier of the
// evaluation suite: everything between "a selection of experiments at a
// scale" and "a merged cache whose replay is byte-identical to a
// single-node run" lives here, shared by cmd/create-bench (the in-process
// path) and cmd/create-coordinator (the distributed path over a pool of
// create-serve workers).
//
// The three pieces:
//
//   - ShardPlan (PlanShards): a transport-agnostic execution plan built
//     from registry.ShardPlanFor — per shard and per experiment, the grid
//     points owned, the predicted cache hits, and the content-address
//     manifest. Because the plan carries predicted compute per shard, the
//     coordinator schedules hit-aware (heaviest shards first, fully
//     cached shards never dispatched) instead of treating every k/n slice
//     as equal work.
//
//   - Runner: how one shard executes. LocalRunner computes in-process
//     straight into the coordinator's store; HTTPRunner submits shard
//     jobs to a create-serve worker, follows its NDJSON progress, and
//     pulls the computed entries back by content address into a staging
//     directory.
//
//   - Coordinator: fans a plan's shards out over a Runner pool with
//     retry-on-worker-loss (a failed shard is re-queued to a healthy
//     runner; the failing runner enters probation and is health-probed
//     back into the pool, pool.go), merges each completed shard's staging
//     directory into the destination cache at most once (cache.MergeDirs
//     — content addressing makes the union the complete merge), and
//     finally replays the selection unsharded against the merged cache,
//     rendering output byte-identical to a single machine. Pool
//     membership is dynamic: workers join (AddRunner) and drain
//     (DrainRunner) mid-run, over HTTP via WorkersHandler (admin.go).
//
// The coordinator accounts every scheduling decision — shards dispatched,
// re-queued after worker loss, workers probed/readmitted/retired, entries
// merged — on internal/obs counters at shard granularity (observe.go),
// surfaced by cmd/create-coordinator's -metrics-out flag and catalogued
// in docs/METRICS.md. The tier's place in the stack is drawn out in
// docs/ARCHITECTURE.md.
package dispatch

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
)

// ShardJob is one experiment's slice of one shard: the grid points this
// shard owns for that experiment, the predicted cache hits against the
// planning store, and the content addresses — the manifest a worker's
// computed entries are pulled back by.
type ShardJob struct {
	Experiment string `json:"experiment"`
	GridPoints int    `json:"grid_points"`
	Cached     int    `json:"cached"`
	ToCompute  int    `json:"to_compute"`
	// CostSeconds is the predicted compute cost of this slice under the
	// plan's cost table (ToCompute x the experiment's observed per-point
	// cost). Zero when the plan was built without a table, keeping such
	// plans byte-identical to pre-cost ones.
	CostSeconds float64  `json:"cost_seconds,omitempty"`
	Keys        []string `json:"keys,omitempty"`
}

// ShardWork is one shard of the plan: its 1-based "k/n" selector (the
// exact string a JobSpec or -shard flag accepts) and its per-experiment
// slices with summed totals.
type ShardWork struct {
	Index      int    `json:"index"` // 0-based
	Selector   string `json:"selector"`
	GridPoints int    `json:"grid_points"`
	Cached     int    `json:"cached"`
	ToCompute  int    `json:"to_compute"`
	// CostSeconds sums the jobs' predicted compute cost; the scheduler's
	// heaviest-first order uses it when present (cost-aware autotuning)
	// and falls back to raw ToCompute when zero.
	CostSeconds float64    `json:"cost_seconds,omitempty"`
	Jobs        []ShardJob `json:"jobs"`
}

// Free reports whether every point this shard owns is already resident in
// the planning store — such shards are never dispatched; the replay
// serves their points from the local cache. Enumerations of dynamic grids
// are supersets, so Free stays sound for them.
func (w ShardWork) Free() bool { return w.ToCompute == 0 }

// Keys returns the shard's deduplicated content-address manifest across
// all its experiments (experiments can share points; sharding is
// per-experiment grid index, so a shared point may appear in two jobs).
func (w ShardWork) Keys() []string {
	seen := make(map[string]bool)
	var keys []string
	for _, j := range w.Jobs {
		for _, k := range j.Keys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// ShardPlan is the transport-agnostic execution plan of one evaluation:
// which experiments, at what scale, split into how many shards, and per
// shard the predicted work. Totals sum the shards (a point shared by two
// experiments is counted once per experiment slice, mirroring how sharded
// runs execute).
type ShardPlan struct {
	Experiments []string    `json:"experiments"`
	Trials      int         `json:"trials"`
	Seed        int64       `json:"seed"`
	NumShards   int         `json:"num_shards"`
	GridPoints  int         `json:"grid_points"`
	Cached      int         `json:"cached"`
	ToCompute   int         `json:"to_compute"`
	Shards      []ShardWork `json:"shards"`
}

// PlanShards builds the execution plan for sel at opt's scale split
// numShards ways, probing env's cache through registry.ShardPlanFor so
// every shard carries its predicted hits and its key manifest. numShards
// < 1 plans a single shard covering the whole grid.
//
// A non-nil cost table weights the plan: each shard job additionally
// carries its predicted compute cost (ToCompute x observed per-point cost
// of its experiment), which the coordinator's scheduler orders by. The
// table only reweights scheduling — shard membership is still row index
// modulo numShards, so the computed points, their content addresses, and
// the merged cache are byte-identical whatever the table says. A nil
// table leaves every cost zero (the uncosted plan). Plans are
// deterministic given (env cache state, sel, opt, costs).
func PlanShards(env *experiments.Env, sel []registry.Descriptor, opt experiments.Options, numShards int, costs *registry.CostTable) ShardPlan {
	if numShards < 1 {
		numShards = 1
	}
	plan := ShardPlan{Trials: opt.Trials, Seed: opt.Seed, NumShards: numShards}
	for _, d := range sel {
		plan.Experiments = append(plan.Experiments, d.Name)
	}
	for k := 0; k < numShards; k++ {
		so := opt
		so.Shard, so.NumShards = k, numShards
		w := ShardWork{Index: k, Selector: fmt.Sprintf("%d/%d", k+1, numShards)}
		for _, d := range sel {
			p, keys := registry.ShardPlanFor(d, env, so)
			j := ShardJob{
				Experiment: d.Name,
				GridPoints: p.GridPoints, Cached: p.Cached, ToCompute: p.ToCompute,
				Keys: keys,
			}
			if costs != nil {
				j.CostSeconds = float64(p.ToCompute) * costs.PointCost(d.Name)
			}
			w.Jobs = append(w.Jobs, j)
			w.GridPoints += p.GridPoints
			w.Cached += p.Cached
			w.ToCompute += p.ToCompute
			w.CostSeconds += j.CostSeconds
		}
		plan.GridPoints += w.GridPoints
		plan.Cached += w.Cached
		plan.ToCompute += w.ToCompute
		plan.Shards = append(plan.Shards, w)
	}
	return plan
}

// Render executes each selected experiment against env in order and
// prints it in the reference create-bench format (section banners when
// banner is set — the -exp all layout). Every tier renders through this
// one loop, which is what keeps CLI, coordinator and replay output
// byte-identical.
func Render(w io.Writer, env *experiments.Env, sel []registry.Descriptor, opt experiments.Options, banner bool) {
	for _, d := range sel {
		if banner {
			fmt.Fprintf(w, "\n===== %s =====\n", strings.ToUpper(d.Name))
		}
		d.Run(env, opt).Render(w)
	}
}

// RenderPlans prints the cache-aware schedule (create-bench -plan): per
// experiment, the unique grid points its sweeps consult, how many are
// already in the cache, and how many a run would compute. "free" marks
// figures a run would serve entirely from cache.
func RenderPlans(w io.Writer, env *experiments.Env, opt experiments.Options, sel []registry.Descriptor) {
	fmt.Fprintf(w, "%-8s %8s %8s %10s  %s\n", "exp", "points", "cached", "to-compute", "notes")
	for _, d := range sel {
		p := registry.PlanFor(d, env, opt)
		var notes []string
		if p.Free() {
			notes = append(notes, "free")
		}
		if p.Dynamic {
			notes = append(notes, "dynamic upper bound")
		}
		if p.Uncached {
			notes = append(notes, "has uncached work")
		}
		fmt.Fprintf(w, "%-8s %8d %8d %10d  %s\n",
			d.Name, p.GridPoints, p.Cached, p.ToCompute, strings.Join(notes, ", "))
	}
}

// ---------------------------------------------------------------------------
// Coordinator: fan-out, retry, at-most-once merge, replay.

// maxShardAttempts bounds how many times one shard may fail before the
// whole run fails.
const maxShardAttempts = 3

// Coordinator fans a plan's shards out over a pool of Runners and
// reassembles the results into Env's cache. Env.Cache and Store must be
// the same store; when any runner stages entries in directories (the HTTP
// path), the store must be disk-backed so merged entries are readable by
// the replay.
type Coordinator struct {
	Env   *experiments.Env
	Store *cache.Store
	// Runners is the worker pool. A runner whose RunShard fails goes to
	// probation (Health) or, when it cannot be probed, is retired; either
	// way its shard is re-queued to a healthy runner, and a shard that
	// fails maxShardAttempts times fails the run.
	Runners []Runner
	// Metrics receives the create_dispatch_* instrument families (shard
	// dispatch/retry/merge counters, worker health gauge). nil lazily
	// allocates a private registry, so accounting is always on; inject a
	// shared registry to surface it (cmd/create-coordinator -metrics-out).
	Metrics *obs.Registry
	// Trace receives the run's spans — plan, per-attempt dispatch, merge,
	// replay — under one fleet root span. Share the same recorder with the
	// pool's runners so worker-side spans stitch into this timeline
	// (cmd/create-coordinator -trace-out). nil lazily allocates one with a
	// trace ID derived from the plan, so span accounting is always on.
	Trace *trace.Recorder
	// Logger receives the run's progress — shard dispatch, failure, merge,
	// and worker probation/drain events — as structured records with
	// trace/span IDs. nil discards.
	Logger *slog.Logger
	// Costs, when set, makes planning and scheduling cost-aware: shards
	// are weighted by observed per-point compute cost instead of raw point
	// counts, and every completed shard's measured timings are folded back
	// into the table (runners share it), so the schedule adapts across
	// runs of one coordinator process. nil keeps the point-count order.
	Costs *registry.CostTable
	// Health governs what happens to a runner after a shard failure:
	// probeable runners enter probation and are health-checked back into
	// the pool instead of being retired outright. The zero value is the
	// default probe schedule.
	Health HealthConfig

	mu       sync.Mutex
	merged   map[int]bool // shards whose entries have landed, for at-most-once merge
	rootSpan string       // fleet root span ID; parent of dispatch/merge spans

	// Live pool state for one Execute (pool.go). Guarded by poolMu, never
	// mu: metric helpers lock mu, and they run while pool decisions are
	// being made.
	poolMu sync.Mutex
	pool   []*member
	poolOn bool
	wake   chan struct{}
}

// Run is the end-to-end distributed evaluation: plan sel at numShards,
// execute the non-free shards across the runner pool, and replay the
// selection unsharded against the merged cache, rendering to w. The
// rendered bytes are identical to a single-node create-bench run of the
// same selection — the merge only ever adds cache entries the single-node
// run would have computed itself.
func (c *Coordinator) Run(ctx context.Context, w io.Writer, sel []registry.Descriptor, opt experiments.Options, numShards int, banner bool) (ShardPlan, error) {
	runStart := now()
	plan := PlanShards(c.Env, sel, opt, numShards, c.Costs)
	rec := c.ensureTrace(plan)
	root := c.mintRootSpan(rec)
	rec.Record(trace.Span{
		TraceID: rec.TraceID(), SpanID: rec.NewSpanID(), ParentID: root,
		Name: "plan", Start: runStart, End: now(),
		Attrs: map[string]string{
			"node":        "coordinator",
			"grid_points": strconv.Itoa(plan.GridPoints),
			"cached":      strconv.Itoa(plan.Cached),
			"to_compute":  strconv.Itoa(plan.ToCompute),
			"shards":      strconv.Itoa(plan.NumShards),
		},
	})
	c.log().Info("fleet run planned",
		"trace_id", rec.TraceID(), "span_id", root,
		"experiments", strings.Join(plan.Experiments, ","),
		"shards", plan.NumShards, "grid_points", plan.GridPoints,
		"cached", plan.Cached, "to_compute", plan.ToCompute)
	// The fleet root span closes when Run returns, whatever the outcome —
	// its duration is the end-to-end wall time of the distributed run.
	finish := func(err error) {
		attrs := map[string]string{
			"node":        "coordinator",
			"experiments": strings.Join(plan.Experiments, ","),
			"shards":      strconv.Itoa(plan.NumShards),
		}
		if err != nil {
			attrs["error"] = err.Error()
		}
		rec.Record(trace.Span{
			TraceID: rec.TraceID(), SpanID: root,
			Name: "coordinate", Start: runStart, End: now(), Attrs: attrs,
		})
	}
	if err := c.Execute(ctx, plan); err != nil {
		finish(err)
		return plan, err
	}
	replay := opt
	replay.Shard, replay.NumShards = 0, 0
	replay.Ctx = ctx
	replayStart := now()
	// An interrupt mid-replay surfaces as the Canceled panic at the next
	// grid-point boundary; convert it to the same clean error the fan-out
	// phase reports instead of crashing the caller.
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(experiments.Canceled); ok {
					err = ctx.Err()
					if err == nil {
						err = context.Canceled
					}
					return
				}
				panic(r)
			}
		}()
		Render(w, c.Env, sel, replay, banner)
		return nil
	}()
	replayAttrs := map[string]string{"node": "coordinator"}
	if err != nil {
		replayAttrs["error"] = err.Error()
	}
	rec.Record(trace.Span{
		TraceID: rec.TraceID(), SpanID: rec.NewSpanID(), ParentID: root,
		Name: "replay", Start: replayStart, End: now(), Attrs: replayAttrs,
	})
	finish(err)
	return plan, err
}

// Execute runs every non-free shard of the plan on the runner pool.
// Shards are dispatched heaviest-predicted-compute first (hit-aware
// balancing: a naive k/n round-robin would let one unlucky worker own the
// whole tail), failed shards are re-queued to surviving runners, and each
// completed shard's staged entries are merged into the destination store
// at most once.
//
// The pool is self-healing: a runner that fails a shard enters probation
// (pool.go) and is health-probed back in instead of being lost for the
// run, workers can join or drain mid-run (AddRunner/DrainRunner), and the
// run only fails for lack of workers once every member is retired with
// its probation exhausted.
func (c *Coordinator) Execute(ctx context.Context, plan ShardPlan) error {
	health := c.Health.withDefaults()
	if err := c.startPool(); err != nil {
		return err
	}
	defer c.stopPool()
	// Probes outlive individual scheduling iterations but not Execute:
	// canceling here stops every in-flight probation episode, and the Wait
	// keeps probe goroutines from outliving the run they account against.
	probeCtx, cancelProbes := context.WithCancel(ctx)
	var probeWG sync.WaitGroup
	defer func() {
		cancelProbes()
		probeWG.Wait()
	}()
	rec := c.ensureTrace(plan)
	root := c.rootSpanID() // "" when Execute is driven without Run: dispatch spans become top-level

	// Hit-aware schedule: heaviest shards first; fully cached shards are
	// never dispatched at all — the replay serves their points locally.
	var pending []int
	for _, w := range plan.Shards {
		if w.Free() {
			c.countShard("free")
			at := now()
			rec.Record(trace.Span{
				TraceID: rec.TraceID(), SpanID: rec.NewSpanID(), ParentID: root,
				Name: "free " + w.Selector, Start: at, End: at,
				Attrs: map[string]string{
					"node": "coordinator", "shard": w.Selector,
					"grid_points": strconv.Itoa(w.GridPoints),
				},
			})
			c.log().Info("shard fully cached; not dispatching",
				"trace_id", rec.TraceID(), "span_id", root,
				"shard", w.Selector, "grid_points", w.GridPoints)
			continue
		}
		pending = append(pending, w.Index)
	}
	// Heaviest-first by predicted cost when the plan carries one, raw
	// point count otherwise. The stable sort keeps shard-index order among
	// equals, so a nil cost table reproduces the pre-cost schedule exactly.
	weight := func(idx int) float64 {
		w := plan.Shards[idx]
		if w.CostSeconds > 0 {
			return w.CostSeconds
		}
		return float64(w.ToCompute)
	}
	sort.SliceStable(pending, func(i, j int) bool {
		return weight(pending[i]) > weight(pending[j])
	})
	if len(pending) == 0 {
		return nil
	}

	type result struct {
		shard  int
		member *member
		dir    string
		err    error
	}
	// Unbuffered: senders race their result against loopDone, so an error
	// return never strands an in-flight goroutine blocking on its send —
	// however large the pool has grown by then.
	results := make(chan result)
	loopDone := make(chan struct{})
	defer close(loopDone)
	attempts := make(map[int]int)
	inflight := make(map[int]trace.Span) // dispatch span per in-flight shard
	outstanding := 0
	for {
		for len(pending) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			m, ok := c.claimIdle()
			if !ok {
				break
			}
			shard := pending[0]
			pending = pending[1:]
			w := plan.Shards[shard]
			label := m.runner.Label()
			c.countShard("dispatched")
			c.countAttempt(w.Selector)
			sp := trace.Span{
				TraceID: rec.TraceID(), SpanID: rec.NewSpanID(), ParentID: root,
				Name: "dispatch " + w.Selector, Start: now(),
				Attrs: map[string]string{
					"node": "coordinator", "shard": w.Selector,
					"worker":     label,
					"attempt":    strconv.Itoa(attempts[shard] + 1),
					"to_compute": strconv.Itoa(w.ToCompute),
				},
			}
			inflight[shard] = sp
			c.log().Info("shard dispatched",
				"trace_id", rec.TraceID(), "span_id", sp.SpanID,
				"shard", w.Selector, "worker", label,
				"attempt", attempts[shard]+1, "to_compute", w.ToCompute)
			outstanding++
			go func(shard int, m *member, dctx context.Context) {
				dir, err := m.runner.RunShard(dctx, plan, shard)
				select {
				case results <- result{shard: shard, member: m, dir: dir, err: err}:
				case <-loopDone:
				}
			}(shard, m, withSpan(ctx, sp.Context()))
		}
		if outstanding == 0 {
			if len(pending) == 0 {
				return nil
			}
			idleN, probation := c.poolHope()
			if idleN == 0 && probation == 0 {
				return fmt.Errorf("no healthy runners left with %d shard(s) unfinished (probation exhausted)", len(pending))
			}
			if idleN > 0 {
				// A readmit or join landed between claim attempts.
				continue
			}
			// Everything is in probation: wait for an episode to settle (or
			// a worker to join) before deciding the run's fate.
			select {
			case <-c.wake:
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}

		var res result
		select {
		case res = <-results:
		case <-c.wake:
			// Membership changed (join/readmit/drain): revisit dispatch.
			continue
		case <-ctx.Done():
			return ctx.Err()
		}
		outstanding--
		w := plan.Shards[res.shard]
		label := res.member.runner.Label()
		sp := inflight[res.shard]
		delete(inflight, res.shard)
		sp.End = now()
		if res.err != nil {
			sp.Attrs["error"] = res.err.Error()
		}
		rec.Record(sp)
		if res.err != nil {
			// Worker loss: the runner goes to probation (or retirement) and
			// the shard is re-queued.
			attempts[res.shard]++
			c.countRetry(label)
			c.log().Warn("shard failed; worker leaving service",
				"trace_id", rec.TraceID(), "span_id", sp.SpanID,
				"shard", w.Selector, "worker", label,
				"attempt", attempts[res.shard], "error", res.err.Error())
			c.handleFailure(res.member, health, rec, probeCtx, &probeWG)
			if attempts[res.shard] >= maxShardAttempts {
				return fmt.Errorf("shard %s failed %d times, last on %s: %w",
					w.Selector, attempts[res.shard], label, res.err)
			}
			c.countShard("requeued")
			pending = append(pending, res.shard)
			continue
		}
		mergeStart := now()
		n, dup, err := c.mergeShard(res.shard, res.dir)
		mergeAttrs := map[string]string{
			"node": "coordinator", "shard": w.Selector,
			"entries": strconv.Itoa(n), "dup": strconv.FormatBool(dup),
		}
		if err != nil {
			mergeAttrs["error"] = err.Error()
		}
		rec.Record(trace.Span{
			TraceID: rec.TraceID(), SpanID: rec.NewSpanID(), ParentID: sp.SpanID,
			Name: "merge " + w.Selector, Start: mergeStart, End: now(), Attrs: mergeAttrs,
		})
		if err != nil {
			return fmt.Errorf("merging shard %s: %w", w.Selector, err)
		}
		c.log().Info("shard merged",
			"trace_id", rec.TraceID(), "span_id", sp.SpanID,
			"shard", w.Selector, "worker", label,
			"entries", n, "dup", dup)
		if res.dir != "" {
			// The staging dir's entries now live in the destination (or, on
			// a duplicate completion, already did); drop the copies so they
			// never pollute cache-dir scans or later merges.
			_ = os.RemoveAll(res.dir)
		}
		c.countShard("completed")
		if !dup && res.dir != "" {
			c.countMergedEntries(n)
		}
		c.releaseMember(res.member)
	}
}

// mergeShard lands one completed shard's staged entries into the
// destination cache directory, exactly once per shard index: a duplicate
// completion (a shard retried after a lost acknowledgement, say) reports
// dup=true and merges nothing. dir "" means the runner computed straight
// into the destination store (LocalRunner) and there is nothing to copy —
// the shard is still marked, so a duplicate stays detectable.
func (c *Coordinator) mergeShard(shard int, dir string) (entries int, dup bool, err error) {
	c.mu.Lock()
	if c.merged == nil {
		c.merged = make(map[int]bool)
	}
	if c.merged[shard] {
		c.mu.Unlock()
		return 0, true, nil
	}
	c.merged[shard] = true
	c.mu.Unlock()
	if dir == "" {
		return 0, false, nil
	}
	if c.Store == nil || c.Store.Dir() == "" {
		return 0, false, fmt.Errorf("staged shard entries need a disk-backed destination cache (-cache-dir)")
	}
	entries, err = cache.MergeDirs(c.Store.Dir(), dir)
	return entries, false, err
}
