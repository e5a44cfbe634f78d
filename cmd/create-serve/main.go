// Command create-serve runs the evaluation-as-a-service daemon: an HTTP
// API over the experiment registry and the shared content-addressed
// Summary cache. Submit jobs, stream their progress, fetch rendered
// results, and inspect the cache — results are byte-identical to the
// equivalent create-bench invocation, and repeated submissions of the same
// (experiment, trials, seed) spec are served from cache without
// recomputing a single grid point.
//
//	create-serve -addr :8080 -cache-dir cache -workers 8 -jobs 2
//
//	curl -X POST localhost:8080/v1/jobs -d '{"experiment":"fig16","trials":48,"seed":2026}'
//	curl localhost:8080/v1/jobs/job-1
//	curl localhost:8080/v1/jobs/job-1/events        # NDJSON progress
//	curl localhost:8080/v1/jobs/job-1/result        # rendered figure
//	curl localhost:8080/v1/jobs/job-1/timing        # per-stage timing record
//	curl localhost:8080/v1/cache/stats
//	curl localhost:8080/metrics                     # Prometheus exposition
//
// Every job records queued→planned→computed→rendered timestamps, and the
// /metrics endpoint exposes the service, cache, and per-stage latency
// families documented in docs/METRICS.md.
//
// On SIGINT/SIGTERM the daemon stops accepting submissions, drains every
// queued and running job, then shuts the listener down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persist the content-addressed summary cache to this directory (empty = in-memory only)")
	cacheMaxMB := flag.Int("cache-max-mb", 0, "cap the disk cache at this many MiB, evicting least-recently-used entries (0 = unbounded)")
	cacheMaxResident := flag.Int("cache-max-resident", 200000, "cap the in-memory summary layer at this many grid points so daemon memory stays flat (0 = unbounded)")
	workers := flag.Int("workers", 0, "total core budget across concurrent jobs (0 = all cores)")
	jobs := flag.Int("jobs", 2, "concurrent job executors; the worker budget is split between them")
	queue := flag.Int("queue", 64, "bounded admission queue depth across all tenants; a full queue rejects submissions with 503 and a Retry-After hint")
	tenantQuota := flag.Int("tenant-quota", 0, "cap each tenant's queued+running jobs; over-quota submissions get 429 with a Retry-After hint (0 = unlimited)")
	finishedTTL := flag.Duration("finished-ttl", 0, "expire finished jobs this long after completion (0 = count cap only)")
	eventKeepalive := flag.Duration("event-keepalive", 0, "keepalive cadence on idle events streams so clients can detect hung connections (0 = 10s)")
	enablePprof := flag.Bool("pprof", false, "expose /debug/pprof/ profiling handlers (CPU, heap, goroutine) on the service listener")
	logFormat := flag.String("log-format", "text", "structured log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	store, err := cache.New(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opening cache %s: %v\n", *cacheDir, err)
		os.Exit(2)
	}
	if *cacheMaxMB > 0 {
		if err := store.SetMaxBytes(int64(*cacheMaxMB) << 20); err != nil {
			fmt.Fprintf(os.Stderr, "arming cache size cap: %v\n", err)
			os.Exit(2)
		}
	}
	store.SetMaxResident(*cacheMaxResident)
	env := experiments.NewEnv()
	env.Cache = store

	srv := service.New(service.Config{
		Env:               env,
		Store:             store,
		Workers:           *workers,
		MaxConcurrentJobs: *jobs,
		QueueDepth:        *queue,
		TenantQuota:       *tenantQuota,
		EventKeepalive:    *eventKeepalive,
		FinishedJobTTL:    *finishedTTL,
		Logger:            logger,
	})
	srv.Start()

	handler := srv.Handler()
	if *enablePprof {
		// Profiling stays opt-in: the daemon may face untrusted clients,
		// and pprof endpoints leak heap contents. Explicit registrations on
		// a wrapping mux (rather than the package's DefaultServeMux side
		// effect) keep the service routes untouched.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("listener failed", "error", err.Error())
			os.Exit(1)
		}
	}()
	logger.Info("create-serve listening", "addr", *addr, "cache_dir", *cacheDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful shutdown: refuse new submissions and drain in-flight jobs
	// first (event streams then observe terminal states), close the
	// listener after.
	logger.Info("draining jobs")
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	st := store.Stats()
	logger.Info("cache summary", "hits", st.Hits, "misses", st.Misses, "resident", st.Resident)
}
