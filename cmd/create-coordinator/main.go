// Command create-coordinator is the distributed front end of the
// evaluation suite: it plans a selection of experiments into shards
// (internal/dispatch), fans the shards out over a pool of create-serve
// workers and/or in-process runners, pulls every worker's computed cache
// entries back by content address, merges them into a local cache
// directory, and replays the selection against the merged cache — so its
// stdout is byte-identical to a single create-bench run of the same
// selection, however many machines did the computing.
//
//	create-serve -addr :8081 -cache-dir w1 &          # worker 1
//	create-serve -addr :8082 -cache-dir w2 &          # worker 2
//	create-coordinator -exp fig16 -trials 48 -shards 4 -cache-dir coord \
//	    -workers http://127.0.0.1:8081,http://127.0.0.1:8082 > fig16.txt
//
// Scheduling is hit-aware: shards are planned against the local cache
// (registry.PlanFor per shard), fully cached shards are never dispatched,
// and the heaviest predicted compute goes out first. A worker that fails
// a shard is placed on probation and probed (-probe-* flags) — readmitted
// when its health endpoint answers again, retired only when the probe
// budget runs out — and the shard is re-queued to a surviving worker;
// each shard's entries merge into -cache-dir at most once. -prewarm
// pushes points the coordinator already holds to each worker before it
// runs, so a warm coordinator cache saves remote recompute too.
//
// -workers-listen serves the pool's membership API during the run:
// GET /v1/workers lists the pool with per-worker state, POST registers a
// worker mid-run (it starts pulling queued shards immediately), DELETE
// drains one (it finishes its in-flight shard, then leaves).
//
// A second run over the same -cache-dir replays entirely from cache: the
// plan marks every shard free, nothing is dispatched, and no grid point
// is recomputed anywhere.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"

	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
	"github.com/embodiedai/create/internal/service"
)

func main() {
	exp := flag.String("exp", "all", "experiment selection (fig1..fig21, table2..table6, all)")
	trials := flag.Int("trials", 48, "episode repetitions per data point")
	seed := flag.Int64("seed", 2026, "base random seed")
	shards := flag.Int("shards", 0, "shard count (0 = twice the runner count, so balancing has slack)")
	workerList := flag.String("workers", "", "comma-separated create-serve worker URLs")
	local := flag.Int("local", 0, "in-process runners to add to the pool (with no -workers, defaults to 1)")
	localWorkers := flag.Int("local-compute", 0, "per-shard parallelism of each in-process runner (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "destination cache directory (required with remote workers; shard entries merge here)")
	prewarm := flag.Bool("prewarm", false, "push locally cached points to each worker before it runs its shard")
	planOnly := flag.Bool("plan", false, "print the shard plan and exit without running")
	costsIn := flag.String("costs", "", "cost table JSON (seconds_per_point map, or an array of job timing records) to weight shard scheduling by observed per-point compute cost")
	costsOut := flag.String("costs-out", "", "write the run's harvested cost table as JSON to this file (\"-\" for stderr) for the next run's -costs")
	events := flag.Bool("events", false, "log every worker progress event (verbose)")
	metricsOut := flag.String("metrics-out", "", "write the run's metrics in Prometheus text format to this file (\"-\" for stderr)")
	traceOut := flag.String("trace-out", "", "write the run's stitched Chrome trace-event JSON (Perfetto-loadable) to this file (\"-\" for stderr)")
	logFormat := flag.String("log-format", "text", "structured log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	workersListen := flag.String("workers-listen", "", "serve the pool membership API (GET/POST/DELETE /v1/workers) on this address during the run")
	probeAttempts := flag.Int("probe-attempts", 0, "health probes before a failed worker is retired (0 = 6)")
	probeSuccesses := flag.Int("probe-successes", 0, "consecutive probe successes before readmission (0 = 2)")
	probeBase := flag.Duration("probe-base", 0, "first probe backoff delay, doubled per failure (0 = 250ms)")
	probeMax := flag.Duration("probe-max", 0, "probe backoff ceiling (0 = 5s)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline for worker control-plane calls (0 = 30s)")
	requestRetries := flag.Int("request-retries", 0, "retries per transient worker request failure (0 = 2, negative disables)")
	stallTimeout := flag.Duration("stall-timeout", 0, "max silence on a worker's events stream before the shard fails over (0 = 2m; keep above the worker's -event-keepalive)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	l, err := dispatch.OpenLocal("", *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	selection, err := dispatch.Selection(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := l.Options(*trials, *seed, 0)

	// The cost table is shared by the planner (shard weights), every runner
	// (timing harvest), and -costs-out (the next run's input): one feedback
	// loop from observed per-point compute cost back into the schedule.
	var costs *registry.CostTable
	if *costsIn != "" {
		costs, err = registry.LoadCostTable(*costsIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading -costs: %v\n", err)
			os.Exit(2)
		}
	} else if *costsOut != "" {
		costs = registry.NewCostTable()
	}

	var urls []string
	if *workerList != "" {
		urls = strings.Split(*workerList, ",")
	}
	if *local == 0 && len(urls) == 0 {
		*local = 1
	}
	numShards := *shards
	if numShards <= 0 {
		numShards = 2 * (len(urls) + *local)
	}

	// One recorder is shared by the coordinator and every runner, so the
	// whole fleet — dispatch, retries, merges, worker compute pulled back
	// over HTTP — lands in a single stitched timeline. The trace ID is
	// derived from the plan identity, so a replayed run traces identically.
	names := make([]string, len(selection))
	for i, d := range selection {
		names[i] = d.Name
	}
	rec := trace.NewRecorder(dispatch.FleetTraceID(names, *trials, *seed, numShards), "coordinator")

	var runners []dispatch.Runner
	stage := "" // staging root for pulled entries; removed before every exit
	cleanup := func() {
		if stage != "" {
			os.RemoveAll(stage)
		}
	}
	// One construction path for every remote worker — the -workers list and
	// anything registered later through -workers-listen — so a joined
	// worker gets the same staging, prewarm, retry, and trace wiring.
	newHTTPRunner := func(url, stageName string) *dispatch.HTTPRunner {
		r := &dispatch.HTTPRunner{
			BaseURL:        strings.TrimRight(strings.TrimSpace(url), "/"),
			StageDir:       filepath.Join(stage, stageName),
			Local:          l.Store,
			Prewarm:        *prewarm,
			Trace:          rec,
			Costs:          costs,
			RequestTimeout: *requestTimeout,
			MaxRetries:     *requestRetries,
			StallTimeout:   *stallTimeout,
		}
		if *events {
			r.OnEvent = func(shard int, ev service.Event) {
				logger.Info("worker event", "shard", shard+1,
					"job", ev.Job, "state", ev.State, "message", ev.Message)
			}
		}
		return r
	}
	if *workerList != "" || *workersListen != "" {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "remote workers need -cache-dir: their shard entries are pulled and merged there")
			os.Exit(2)
		}
		// Stage pulled entries outside the cache dir: staged copies are
		// deleted after each merge, and must never pollute cache-dir scans.
		var err error
		stage, err = os.MkdirTemp("", "create-coordinator-stage-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating staging dir: %v\n", err)
			os.Exit(2)
		}
		defer cleanup()
	}
	for i, url := range urls {
		runners = append(runners, newHTTPRunner(url, fmt.Sprintf("worker-%d", i)))
	}
	for i := 0; i < *local; i++ {
		runners = append(runners, &dispatch.LocalRunner{
			Env: l.Env, Workers: *localWorkers, Name: fmt.Sprintf("local-%d", i+1),
			Trace: rec, Costs: costs,
		})
	}

	if *planOnly {
		plan := dispatch.PlanShards(l.Env, selection, opt, numShards, costs)
		fmt.Printf("%d experiment(s), %d shards: %d points, %d cached, %d to compute\n",
			len(plan.Experiments), plan.NumShards, plan.GridPoints, plan.Cached, plan.ToCompute)
		for _, w := range plan.Shards {
			note := ""
			if w.CostSeconds > 0 {
				note = fmt.Sprintf("  (predicted %.2fs)", w.CostSeconds)
			}
			if w.Free() {
				note += "  (free: will not dispatch)"
			}
			fmt.Printf("  shard %-6s %6d points %6d cached %6d to compute%s\n",
				w.Selector, w.GridPoints, w.Cached, w.ToCompute, note)
		}
		return
	}

	// One registry carries both tiers' families: the store's create_cache_*
	// counters (the same numbers the final summary line prints) and the
	// coordinator's create_dispatch_* shard/retry/merge accounting.
	reg := obs.NewRegistry()
	l.Store.Register(reg)
	coord := &dispatch.Coordinator{
		Env: l.Env, Store: l.Store, Runners: runners,
		Metrics: reg,
		Trace:   rec,
		Logger:  logger,
		Costs:   costs,
		Health: dispatch.HealthConfig{
			MaxProbes: *probeAttempts,
			Successes: *probeSuccesses,
			BaseDelay: *probeBase,
			MaxDelay:  *probeMax,
		},
	}

	if *workersListen != "" {
		var joined atomic.Int64
		ln, err := net.Listen("tcp", *workersListen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coordinator: -workers-listen: %v\n", err)
			cleanup()
			os.Exit(2)
		}
		srv := &http.Server{Handler: coord.WorkersHandler(func(url string) (dispatch.Runner, error) {
			return newHTTPRunner(url, fmt.Sprintf("joined-%d", joined.Add(1))), nil
		})}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Error("workers admin server", "error", err.Error())
			}
		}()
		defer srv.Close()
		logger.Info("workers admin listening", "addr", ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	plan, err := coord.Run(ctx, os.Stdout, selection, opt, numShards, *exp == "all")
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordinator: %v\n", err)
		cleanup()
		os.Exit(1)
	}
	logger.Info("fleet run complete", "trace_id", rec.TraceID(),
		"shards", plan.NumShards, "grid_points", plan.GridPoints,
		"cached", plan.Cached, "to_compute", plan.ToCompute)
	st := l.Store.Stats()
	fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d points resident\n",
		st.Hits, st.Misses, st.Resident)
	if *metricsOut != "" {
		if err := dumpMetrics(reg, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "coordinator: writing metrics: %v\n", err)
			cleanup()
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := dumpTrace(rec, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "coordinator: writing trace: %v\n", err)
			cleanup()
			os.Exit(1)
		}
	}
	if *costsOut != "" {
		if err := dumpCosts(costs, *costsOut); err != nil {
			fmt.Fprintf(os.Stderr, "coordinator: writing costs: %v\n", err)
			cleanup()
			os.Exit(1)
		}
	}
}

// dumpCosts writes the harvested cost table as JSON to path ("-" = stderr):
// feed it to the next run's -costs so schedules keep adapting across runs.
func dumpCosts(costs *registry.CostTable, path string) error {
	if path == "-" {
		return costs.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := costs.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpMetrics renders the registry to path ("-" = stderr) after the run —
// the batch-CLI counterpart of create-serve's GET /metrics.
func dumpMetrics(reg *obs.Registry, path string) error {
	if path == "-" {
		reg.WritePrometheus(os.Stderr)
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	reg.WritePrometheus(f)
	return f.Close()
}

// dumpTrace renders the fleet's stitched spans as one Chrome trace-event
// JSON document to path ("-" = stderr) — open it in Perfetto or
// chrome://tracing to see coordinator, dispatch, and worker lanes on one
// timeline.
func dumpTrace(rec *trace.Recorder, path string) error {
	if path == "-" {
		return trace.WriteChrome(os.Stderr, rec.Spans())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
