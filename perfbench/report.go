package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// op is one unit of work a client waited for: an experiment rendered, a
// served job fetched, or a fleet run replayed.
type op struct {
	At     time.Time `json:"at"`
	Exp    string    `json:"exp"`
	Seed   int64     `json:"seed"`
	MS     float64   `json:"ms"`
	Digest string    `json:"digest"`
	Err    string    `json:"err,omitempty"`
}

// outcome is what a workload measured; report turns it into metrics.
type outcome struct {
	trials  int
	clients int
	ops     []op    // every op attempted in the measured phase
	wall    float64 // seconds of the measured phase
	cpu     float64 // user+sys CPU seconds of the measured phase, children included
	alloc   float64 // heap bytes allocated in the measured phase, children included
	rssMB   float64 // peak resident set of the measuring process
	setup   []float64
	fixture float64
	// window is how many leading ops the deterministic counters cover;
	// layers holds the counters plus the per-layer times.
	window int
	layers map[string]float64
	// cpuLayers is CPU seconds by layer from the traced run's profiles.
	cpuLayers map[string]float64
	// broken lists failed checks outside any op (a fixture digest).
	broken []string
	// marks split a phase of many short ops into windows of equal op
	// counts; with two or more windows the per-op rates are their medians,
	// which a burst of load from outside the benchmark moves less.
	marks []mark
}

// mark is the state of a measured phase after done completed ops.
type mark struct {
	at              time.Time
	done            int
	cpu, allocBytes float64
}

// phase measures one timed phase, marking every block completed ops.
type phase struct {
	start time.Time
	m     meter
	block int
	marks []mark
}

func (p *phase) now(done int) mark {
	cpu, alloc := p.m.stop()
	return mark{time.Now(), done, cpu, alloc}
}

func startPhase(block int) *phase {
	p := &phase{m: startMeter(), block: block}
	p.start = time.Now()
	p.marks = []mark{{at: p.start}}
	return p
}

// completed records that done ops have completed; the caller serializes
// calls.
func (p *phase) completed(done int) {
	if done%p.block == 0 {
		p.marks = append(p.marks, p.now(done))
	}
}

// stop ends the phase and fills the outcome's totals and windows.
func (p *phase) stop(o *outcome) {
	end := p.now(0)
	o.wall = end.at.Sub(p.start).Seconds()
	o.cpu, o.alloc = end.cpu, end.allocBytes
	o.marks = p.marks
}

// windowRates returns the median per-window ops/s, CPU s/op and bytes/op,
// or ok=false with fewer than two windows.
func (o *outcome) windowRates() (opsPerS, cpuPerOp, allocPerOp float64, ok bool) {
	if len(o.marks) < 3 {
		return 0, 0, 0, false
	}
	var rate, cpu, alloc []float64
	for i := 1; i < len(o.marks); i++ {
		a, b := o.marks[i-1], o.marks[i]
		n := float64(b.done - a.done)
		rate = append(rate, n/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, (b.cpu-a.cpu)/n)
		alloc = append(alloc, (b.allocBytes-a.allocBytes)/n)
	}
	return median(rate), median(cpu), median(alloc), true
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// counterNames are the deterministic work counters: for one seed and one
// build they repeat exactly, whatever the timing (perfbench/steady.py
// checks this). They cover the counting window, a fixed number of
// leading ops, not the whole timed phase.
var counterNames = []string{
	"agent.episodes", "agent.steps", "bridge.severity_calls", "bridge.severity_keys",
	"cache.hits", "cache.misses", "cache.imported",
	"registry.grid_points", "registry.to_compute", "dispatch.shards",
}

// cpuPackages are the internal/ packages the profile attribution reports
// by name: the layers a workload loads or is predicted not to touch. CPU in
// any other internal/ package counts as cpu.other_s.
var cpuPackages = []string{
	"agent", "world", "policy", "planner", "bridge", "model", "nn", "systolic",
	"quant", "tensor", "inject", "timing", "hadamard", "sim", "cache", "registry",
	"experiments", "service", "dispatch", "obs",
}

func perLayer() []metricDef {
	defs := []metricDef{}
	for _, n := range counterNames {
		defs = append(defs, metricDef{n, "count"})
	}
	defs = append(defs,
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.disk_mb", "MB"},
		metricDef{"bridge.severity_ms", "ms"},
		metricDef{"registry.run_ms", "ms"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.plan_ms", "ms"},
		metricDef{"service.compute_ms", "ms"},
		metricDef{"service.render_ms", "ms"},
		metricDef{"service.transport_ms", "ms"},
		metricDef{"service.dedupe_joins", "count"},
		metricDef{"service.rejected", "count"},
		metricDef{"dispatch.plan_ms", "ms"},
		metricDef{"dispatch.shard_ms", "ms"},
		metricDef{"dispatch.merge_ms", "ms"},
		metricDef{"dispatch.replay_ms", "ms"},
		metricDef{"dispatch.retries", "count"},
	)
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu." + p + "_s", "s"})
	}
	return append(defs,
		metricDef{"cpu.gc_s", "s"},
		metricDef{"cpu.other_s", "s"},
		metricDef{"cpu.total_s", "s"},
		metricDef{"cpu.agent_world_share", "ratio"},
		metricDef{"cpu.systolic_quant_share", "ratio"},
		metricDef{"sim.core_busy_frac", "ratio"},
		metricDef{"traced.ops_per_s", "1/s"},
	)
}

// report prints every metric by name and unit, one per line, and returns
// the result object for the final line.
func (o *outcome) report(w io.Writer, cfg *config) result {
	res := result{Correct: len(o.broken) == 0, Attempted: len(o.ops), Metrics: map[string]value{}}
	byExp := map[string][]float64{}
	for _, p := range o.ops {
		if p.Err != "" {
			res.Failed++
			fmt.Fprintf(w, "failed op %s seed %d: %s\n", p.Exp, p.Seed, p.Err)
			continue
		}
		byExp[p.Exp] = append(byExp[p.Exp], p.MS)
	}
	for _, b := range o.broken {
		fmt.Fprintln(w, "failed check:", b)
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	// The latencies of a mix of experiments are clusters up to orders of
	// magnitude apart, and the median of the pooled mix sits on the edge of
	// one cluster and jumps between two from run to run. So op_p50_ms is
	// the geometric mean of each experiment's median. op_p90_ms is the
	// pooled 90th percentile, which lies inside the slowest experiment's
	// cluster whenever that experiment is over a tenth of the ops.
	exps := slices.Sorted(maps.Keys(byExp))
	var all []float64
	logP50 := 0.0
	for _, exp := range exps {
		all = append(all, byExp[exp]...)
		logP50 += math.Log(percentile(byExp[exp], 0.5)) / float64(len(exps))
	}
	done := float64(len(all))
	e2e := map[string]float64{
		"setup_s":     median(o.setup),
		"ops_per_s":   done / o.wall,
		"op_p50_ms":   math.Exp(logP50),
		"op_p90_ms":   percentile(all, 0.9),
		"peak_rss_mb": o.rssMB,
	}
	if done > 0 {
		e2e["cpu_s_per_op"] = o.cpu / done
		e2e["alloc_mb_per_op"] = o.alloc / 1e6 / done
	}
	if rate, cpu, alloc, ok := o.windowRates(); ok && res.Failed == 0 {
		e2e["ops_per_s"], e2e["cpu_s_per_op"], e2e["alloc_mb_per_op"] = rate, cpu, alloc/1e6
	}
	fmt.Fprintf(w, "workload %s seed %d trials %d clients %d ops %d failed %d failed_frac %.4f window %d\n",
		cfg.workload, cfg.seed, o.trials, o.clients, res.Attempted, res.Failed,
		float64(res.Failed)/math.Max(1, float64(res.Attempted)), o.window)
	fmt.Fprintf(w, "fixture_s %.3f (not set-up)\n", o.fixture)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "e2e %-16s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	for _, exp := range exps {
		lat := byExp[exp]
		fmt.Fprintf(w, "op %-8s n %5d p50 %12.3f ms p90 %12.3f ms\n", exp, len(lat), percentile(lat, 0.5), percentile(lat, 0.9))
	}
	for _, n := range counterNames {
		fmt.Fprintf(w, "counter %-22s %d\n", n, int64(o.layers[n]))
	}

	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
		return res
	}
	layers := o.layers
	var total float64
	for layer, s := range o.cpuLayers {
		if layer != "gc" && !slices.Contains(cpuPackages, layer) {
			layer = "other"
		}
		layers["cpu."+layer+"_s"] += s
		total += s
	}
	layers["cpu.total_s"] = total
	if total > 0 {
		layers["cpu.agent_world_share"] = (layers["cpu.agent_s"] + layers["cpu.world_s"]) / total
		layers["cpu.systolic_quant_share"] = (layers["cpu.systolic_s"] + layers["cpu.quant_s"]) / total
	}
	if hits, misses := layers["cache.hits"], layers["cache.misses"]; hits+misses > 0 {
		layers["cache.hit_ratio"] = hits / (hits + misses)
	}
	layers["sim.core_busy_frac"] = o.cpu / (o.wall * float64(runtime.GOMAXPROCS(0)))
	layers["traced.ops_per_s"] = e2e["ops_per_s"]
	for _, m := range perLayer() {
		res.Metrics[m.name] = value{layers[m.name], m.unit}
		if !strings.HasPrefix(m.name, "cpu.") || layers[m.name] != 0 {
			fmt.Fprintf(w, "layer %-26s %14.4f %s\n", m.name, layers[m.name], m.unit)
		}
	}
	return res
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile: the smallest sample with at
// least a fraction q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// Process accounting. Children's usage is counted once they are waited for.

func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// meter brackets a measured phase: process CPU (self and waited-for
// children) and heap bytes allocated by this process.
type meter struct{ cpu, alloc float64 }

func startMeter() meter {
	return meter{cpuSeconds(syscall.RUSAGE_SELF) + cpuSeconds(syscall.RUSAGE_CHILDREN), heapAllocBytes()}
}

func (m meter) stop() (cpu, alloc float64) {
	return cpuSeconds(syscall.RUSAGE_SELF) + cpuSeconds(syscall.RUSAGE_CHILDREN) - m.cpu, heapAllocBytes() - m.alloc
}
