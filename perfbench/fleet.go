package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
)

const (
	fleetWorkers = 2
	fleetShards  = 2 * fleetWorkers // create-coordinator's default
	// fleetWindow is the number of leading fleet runs the counters cover:
	// two cycles of the warm set.
	fleetWindow = 12
)

// fleetRec is one coordinator run as the client saw it.
type fleetRec struct {
	op
	grid, toCompute, shards          int
	hits, misses, imported, retries  float64
	planMS, shardMS, mergeMS, replay float64
}

// runFleet: one closed-loop client runs dispatch.Coordinator into an empty
// coordinator directory each time, over two loopback service workers whose
// stores are warm. Every run plans, dispatches shards the workers serve
// from cache, pulls the entries back (cache ExportTo/ImportFrom), merges
// and replays, so the dispatch tier and the cache write path carry the
// load.
func runFleet(ctx context.Context, cfg *config) (*outcome, error) {
	seed := warmSeeds[cfg.rng.IntN(len(warmSeeds))]
	warm := filepath.Join(cfg.runDir, "warm")
	o := &outcome{trials: unitTrials, clients: 1, window: fleetWindow,
		layers: map[string]float64{}, cpuLayers: map[string]float64{}}
	refs, err := warmFixture(ctx, cfg, o, warm, seed)
	if err != nil {
		return nil, err
	}
	for k := 0; k < fleetWorkers; k++ {
		if err := os.CopyFS(workerDir(cfg.runDir, k), os.DirFS(warm)); err != nil {
			return nil, err
		}
	}
	if o.setup, err = timeSetups(ctx, "fleet", cfg.runDir); err != nil {
		return nil, err
	}
	sev := newSeverityMeter()
	workers, err := bootFleet(ctx, cfg.runDir, sev)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, w := range workers {
			w.close()
		}
	}()
	var urls []string
	for _, w := range workers {
		urls = append(urls, w.url)
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetShards}}
	defer hc.CloseIdleConnections()

	// Warm-up, as for serve: lazy one-time work is paid before timing.
	for i, exp := range warmExps {
		r := fleetRun(ctx, cfg, hc, urls, exp, seed, "warmup-"+itoa(i), sev)
		check(&r.op, refs[exp])
		if r.Err != "" {
			o.broken = append(o.broken, "warm-up "+exp+": "+r.Err)
		}
	}
	sevCalls, sevKeys, sevMS0 := sev.snapshot()

	stopProfile, err := cfg.startProfile("fleet")
	if err != nil {
		return nil, err
	}
	// Each cycle runs every warm experiment once, in a seeded order, and
	// the phase ends on a cycle boundary, so every run has the same mix.
	var recs []fleetRec
	var cycle []int
	ph := startPhase(len(warmExps))
	for i := 0; i < fleetWindow || i%len(warmExps) != 0 || time.Since(ph.start).Seconds() < cfg.seconds; i++ {
		if i%len(warmExps) == 0 {
			cycle = cfg.rng.Perm(len(warmExps))
		}
		exp := warmExps[cycle[i%len(warmExps)]]
		var r fleetRec
		labelled(ctx, "fleet", exp, func(ctx context.Context) {
			r = fleetRun(ctx, cfg, hc, urls, exp, seed, itoa(i), sev)
		})
		check(&r.op, refs[exp])
		recs = append(recs, r)
		ph.completed(len(recs))
	}
	ph.stop(o)
	if err := stopProfile(o.cpuLayers); err != nil {
		return nil, err
	}
	o.rssMB = peakRSSMB()

	var sums [4]float64
	for i, r := range recs {
		o.ops = append(o.ops, r.op)
		sums[0] += r.planMS
		sums[1] += r.shardMS
		sums[2] += r.mergeMS
		sums[3] += r.replay
		o.layers["dispatch.retries"] += r.retries
		if i < fleetWindow {
			o.layers["registry.grid_points"] += float64(r.grid)
			o.layers["registry.to_compute"] += float64(r.toCompute)
			o.layers["dispatch.shards"] += float64(r.shards)
			o.layers["cache.imported"] += r.imported
			o.layers["cache.hits"] += r.hits
			o.layers["cache.misses"] += r.misses
		}
	}
	n := float64(len(recs))
	o.layers["dispatch.plan_ms"] = sums[0] / n
	o.layers["dispatch.shard_ms"] = sums[1] / n
	o.layers["dispatch.merge_ms"] = sums[2] / n
	o.layers["dispatch.replay_ms"] = sums[3] / n
	o.layers["registry.run_ms"] = sums[3] / n
	_, _, sevMS := sev.snapshot()
	o.layers["bridge.severity_calls"] = float64(sevCalls)
	o.layers["bridge.severity_keys"] = float64(sevKeys)
	o.layers["bridge.severity_ms"] = sevMS - sevMS0
	o.layers["cache.disk_mb"] = dirMB(workerDir(cfg.runDir, 0))
	return o, nil
}

func workerDir(runDir string, k int) string {
	return filepath.Join(runDir, "worker-"+itoa(k))
}

// bootFleet starts the loopback workers over their warm stores.
func bootFleet(ctx context.Context, runDir string, sev *severityMeter) ([]*daemon, error) {
	var workers []*daemon
	for k := 0; k < fleetWorkers; k++ {
		w, err := bootDaemon(ctx, "fleet", workerDir(runDir, k), 1, sev)
		if err != nil {
			for _, w := range workers {
				w.close()
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// fleetRun is one create-coordinator run: open a new, empty coordinator
// cache dir, run the experiment over the workers, and replay it. The dir,
// about a megabyte of small files, is kept (see the run dir in main.go).
func fleetRun(ctx context.Context, cfg *config, hc *http.Client, urls []string, exp string, seed int64, tag string, sev *severityMeter) fleetRec {
	r := fleetRec{op: op{Exp: exp, Seed: seed, At: time.Now()}}
	stage := filepath.Join(cfg.runDir, "stage")

	l, err := dispatch.OpenLocal("", filepath.Join(cfg.runDir, "coord-"+tag))
	if err != nil {
		r.Err = err.Error()
		return r
	}
	sev.wrap(l.Env)
	rec := trace.NewRecorder(dispatch.FleetTraceID([]string{exp}, unitTrials, seed, fleetShards), "coordinator")
	reg := obs.NewRegistry()
	var runners []dispatch.Runner
	for k, u := range urls {
		runners = append(runners, &dispatch.HTTPRunner{
			BaseURL: u, Client: hc, StageDir: filepath.Join(stage, "worker-"+itoa(k)),
			Local: l.Store, Trace: rec,
		})
	}
	coord := &dispatch.Coordinator{Env: l.Env, Store: l.Store, Runners: runners, Metrics: reg, Trace: rec}
	d, _ := registry.Lookup(exp)
	var buf bytes.Buffer
	plan, err := coord.Run(ctx, &buf, []registry.Descriptor{d}, l.Options(unitTrials, seed, 2), fleetShards, false)
	r.MS = float64(time.Since(r.At).Nanoseconds()) / 1e6
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Digest = digestOf(buf.Bytes())
	r.grid, r.toCompute = plan.GridPoints, plan.ToCompute
	for _, w := range plan.Shards {
		if !w.Free() {
			r.shards++
		}
	}
	r.hits, r.misses = float64(l.Store.Hits()), float64(l.Store.Misses())
	r.imported = promSum(reg, "create_dispatch_merged_entries_total")
	r.retries = promSum(reg, "create_dispatch_retries_total")
	spans := rec.Spans()
	for _, s := range spans {
		ms := float64(s.End.Sub(s.Start).Nanoseconds()) / 1e6
		switch {
		case s.Name == "plan":
			r.planMS += ms
		case strings.HasPrefix(s.Name, "dispatch "):
			r.shardMS += ms
		case strings.HasPrefix(s.Name, "merge "):
			r.mergeMS += ms
		case s.Name == "replay":
			r.replay += ms
		}
	}
	cfg.record(spans...)
	return r
}

// promSum adds up every series of one metric family in reg's exposition.
func promSum(reg *obs.Registry, family string) float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	var total float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
