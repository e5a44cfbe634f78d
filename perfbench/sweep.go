package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"

	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/registry"
)

// runSweep: each op batch is a fresh process that renders fig16 then
// fig13 on the shared disk cache dir, the way a researcher re-runs
// create-bench. The bridge severity memo is process-global, so only a
// fresh process pays the severity cold start every real run pays. The dir
// is pre-populated by the same selection at another pool seed, so every
// grid point misses and is Put.
func runSweep(ctx context.Context, cfg *config) (*outcome, error) {
	perm := cfg.rng.Perm(len(sweepSeeds))
	dir := filepath.Join(cfg.runDir, "cache")
	o := &outcome{trials: sweepTrials, clients: 1, window: len(sweepExps),
		layers: map[string]float64{}, cpuLayers: map[string]float64{}}

	start := time.Now()
	var fix childResult
	if _, err := spawn(ctx, &fix, "--child", "sweep-op", "--dir", dir,
		"--child-seed", strconv.FormatInt(sweepSeeds[perm[0]], 10)); err != nil {
		return nil, err
	}
	o.fixture = time.Since(start).Seconds()
	for _, p := range fix.Ops {
		check(&p, cfg.expect(p.Exp, sweepTrials, p.Seed))
		if p.Err != "" {
			o.broken = append(o.broken, "fixture "+p.Exp+": "+p.Err)
		}
	}
	var err error
	if o.setup, err = timeSetups(ctx, "sweep", dir); err != nil {
		return nil, err
	}

	var profiles []string
	m := startMeter()
	start = time.Now()
	for i, k := range perm[1:] {
		if i > 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		args := []string{"--child", "sweep-op", "--dir", dir, "--child-seed", strconv.FormatInt(sweepSeeds[k], 10)}
		if cfg.trace {
			prof := cfg.profilePath("sweep-op" + itoa(i))
			profiles = append(profiles, prof)
			args = append(args, "--profile", prof)
		}
		var r childResult
		if _, err := spawn(ctx, &r, args...); err != nil {
			for _, exp := range sweepExps {
				o.ops = append(o.ops, op{Exp: exp, Seed: sweepSeeds[k], Err: err.Error()})
			}
			continue
		}
		for _, p := range r.Ops {
			check(&p, cfg.expect(p.Exp, sweepTrials, p.Seed))
			o.ops = append(o.ops, p)
		}
		if i == 0 {
			o.layers = r.Layers
		}
		o.alloc += r.Alloc
		o.rssMB = max(o.rssMB, r.RSSMB)
	}
	o.wall = time.Since(start).Seconds()
	o.cpu, _ = m.stop()
	for _, prof := range profiles {
		if err := attributeProfile(prof, o.cpuLayers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepOp is the child side of one sweep op batch (and of the fixture):
// open the session the way create-bench -cache-dir does, report ready,
// render the selection, and report ops, work counters and usage.
func sweepOp(dir string, seed int64, profile string) error {
	sev := newSeverityMeter()
	l, err := dispatch.OpenLocal("", dir)
	if err != nil {
		return err
	}
	sev.wrap(l.Env)
	fmt.Println("ready")

	opt := l.Options(sweepTrials, seed, 2)
	layers := map[string]float64{}
	for _, exp := range sweepExps {
		d, _ := registry.Lookup(exp)
		p := registry.PlanFor(d, l.Env, opt)
		layers["registry.grid_points"] += float64(p.GridPoints)
		layers["registry.to_compute"] += float64(p.ToCompute)
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	m := startMeter()
	ops, runMS := renderOps(context.Background(), "sweep", l, sweepExps, opt)
	_, alloc := m.stop()
	if profile != "" {
		pprof.StopCPUProfile()
	}

	episodes, steps, err := workCount(l.Store, l.Env, sweepExps, opt)
	if err != nil {
		return err
	}
	calls, keys, sevMS := sev.snapshot()
	layers["agent.episodes"] = float64(episodes)
	layers["agent.steps"] = float64(steps)
	layers["bridge.severity_calls"] = float64(calls)
	layers["bridge.severity_keys"] = float64(keys)
	layers["bridge.severity_ms"] = sevMS
	layers["cache.hits"] = float64(l.Store.Hits())
	layers["cache.misses"] = float64(l.Store.Misses())
	layers["cache.disk_mb"] = dirMB(dir)
	layers["registry.run_ms"] = runMS
	return jsonLine(childResult{Ops: ops, Layers: layers, Alloc: alloc, RSSMB: peakRSSMB()})
}

// renderOps renders each experiment through dispatch.Local, one op each
// under its own pprof labels, and returns the ops and their mean latency.
func renderOps(ctx context.Context, workload string, l *dispatch.Local, exps []string, opt experiments.Options) ([]op, float64) {
	var ops []op
	var total float64
	for _, exp := range exps {
		d, _ := registry.Lookup(exp)
		var buf bytes.Buffer
		p := op{Exp: exp, Seed: opt.Seed}
		labelled(ctx, workload, exp, func(context.Context) {
			p.At = time.Now()
			l.Run(&buf, []registry.Descriptor{d}, opt, false)
			p.MS = float64(time.Since(p.At).Nanoseconds()) / 1e6
		})
		p.Digest = digestOf(buf.Bytes())
		total += p.MS
		ops = append(ops, p)
	}
	return ops, total / float64(len(exps))
}
