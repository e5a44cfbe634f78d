package main

import (
	"context"
	"path/filepath"
	"time"

	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/registry"
)

// runCharacterize: one client renders fig5, fig4 and fig9 in turn, a round
// per pool seed, in one process. These figures characterize the
// accelerator directly (GEMMs, quantization, injection, timing), so this
// is where a kernel change shows and an episode-loop change should not.
// The phase ends on a round boundary, so every run has the same op mix.
func runCharacterize(ctx context.Context, cfg *config) (*outcome, error) {
	perm := cfg.rng.Perm(len(charSeeds))
	dir := filepath.Join(cfg.runDir, "cache")
	o := &outcome{trials: unitTrials, clients: 1, window: len(charExps),
		layers: map[string]float64{}, cpuLayers: map[string]float64{}}
	var err error
	if o.setup, err = timeSetups(ctx, "characterize", dir); err != nil {
		return nil, err
	}
	sev := newSeverityMeter()
	l, err := dispatch.OpenLocal("", dir)
	if err != nil {
		return nil, err
	}
	sev.wrap(l.Env)
	first := l.Options(unitTrials, charSeeds[perm[0]], 2)
	for _, exp := range charExps {
		d, _ := registry.Lookup(exp)
		p := registry.PlanFor(d, l.Env, first)
		o.layers["registry.grid_points"] += float64(p.GridPoints)
		o.layers["registry.to_compute"] += float64(p.ToCompute)
	}

	stopProfile, err := cfg.startProfile("characterize")
	if err != nil {
		return nil, err
	}
	m := startMeter()
	start := time.Now()
	var runMS float64
	for r, k := range perm {
		if r > 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		ops, ms := renderOps(ctx, "characterize", l, charExps, l.Options(unitTrials, charSeeds[k], 2))
		for _, p := range ops {
			check(&p, cfg.expect(p.Exp, unitTrials, p.Seed))
			o.ops = append(o.ops, p)
		}
		runMS += ms
		if r == 0 {
			calls, keys, sevMS := sev.snapshot()
			o.layers["bridge.severity_calls"] = float64(calls)
			o.layers["bridge.severity_keys"] = float64(keys)
			o.layers["bridge.severity_ms"] = sevMS
			o.layers["cache.hits"] = float64(l.Store.Hits())
			o.layers["cache.misses"] = float64(l.Store.Misses())
			o.layers["cache.disk_mb"] = dirMB(dir)
		}
	}
	o.wall = time.Since(start).Seconds()
	o.cpu, o.alloc = m.stop()
	if err := stopProfile(o.cpuLayers); err != nil {
		return nil, err
	}
	o.rssMB = peakRSSMB()
	o.layers["registry.run_ms"] = runMS / float64(len(o.ops)/len(charExps))
	episodes, steps, err := workCount(l.Store, l.Env, charExps, first)
	if err != nil {
		return nil, err
	}
	o.layers["agent.episodes"] = float64(episodes)
	o.layers["agent.steps"] = float64(steps)
	return o, nil
}
