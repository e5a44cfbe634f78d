// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each Fig*/Table*
// function runs the corresponding workload and returns typed rows; Render
// helpers print them in the shape the paper reports. Absolute numbers come
// from our simulated substrate; the reproduced claims are the shapes — who
// wins, by what factor, where the knees and crossovers fall.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/platforms"
	"github.com/embodiedai/create/internal/power"
	"github.com/embodiedai/create/internal/sim"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// Options control experiment scale. The paper repeats every trial at least
// 100 times (Sec. 6.9); Quick mode trades confidence for wall-clock time.
type Options struct {
	Trials int
	// Seed is the base seed applied to every data point; all grid points
	// derive their per-trial seeds from it, so any value — including 0 — is
	// a valid, reproducible choice.
	Seed int64
	// Workers bounds the parallel fan-out of both the per-point trial loop
	// and the sweep grids: 0 (the default) uses runtime.GOMAXPROCS(0),
	// 1 forces the fully serial path. Results are identical either way —
	// the engine's ordered collection keeps aggregation deterministic.
	Workers int
	// Shard/NumShards partition every sweep grid by stable row index:
	// with NumShards = n > 1, this process computes only the rows whose
	// index i within their sweep's row list satisfies i % n == Shard
	// (0-based). Rows it does not own are dropped from the output, so a
	// sharded run's printed output is partial scaffolding; the full result
	// set is reassembled by merging the shards' cache directories and
	// replaying with sharding off (create-bench -merge). Sharding is
	// deliberately NOT part of the cache fingerprint: a point computed by
	// any shard replays identically everywhere.
	Shard     int
	NumShards int
	// Ctx, when non-nil, lets the caller abort a running evaluation between
	// grid points: once Ctx is canceled, the next point boundary panics with
	// Canceled, which the serving tier recovers into a canceled job. The
	// check sits outside the per-point compute, so a point that has started
	// always runs to completion — concurrent jobs waiting on its flight
	// slot are never poisoned by another job's cancellation. A nil Ctx (the
	// default) never cancels.
	Ctx context.Context
}

// Canceled is the panic value raised at a grid-point boundary once
// Options.Ctx is canceled. It unwinds the sweep through the deterministic
// engine (sim.MapWith re-raises worker panics on the caller) and is recovered
// by Guard, so the service layer marks the job canceled rather than failed.
type Canceled struct{}

func (Canceled) Error() string { return "evaluation canceled" }

// Guard runs fn, converting a panic into an error so one failing
// experiment fails its job instead of the process: the Canceled sentinel
// becomes context.Canceled, and any other panic an error naming the
// experiment. The serving tier and the coordinator's local runner both
// execute experiments through it.
func Guard(name string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Canceled); ok {
				err = context.Canceled
				return
			}
			err = fmt.Errorf("experiment %s panicked: %v", name, r)
		}
	}()
	fn()
	return nil
}

// checkCanceled panics with Canceled once the caller's context is done.
// Called between grid points, never inside a point's compute.
func (o Options) checkCanceled() {
	if o.Ctx == nil {
		return
	}
	select {
	case <-o.Ctx.Done():
		panic(Canceled{})
	default:
	}
}

// owns reports whether this process's shard is responsible for computing
// row i of a sweep. NumShards <= 1 means no sharding: every row is owned.
func (o Options) owns(i int) bool {
	return o.NumShards <= 1 || i%o.NumShards == o.Shard
}

// split divides the Workers budget between a sweep of n rows and the trial
// loops nested inside each row's points, returning the grid-level worker
// count and an Options carrying the per-point remainder. Keeps total
// concurrent episodes within Workers instead of multiplying to Workers^2.
// Under sharding the budget is sized by the rows this shard owns, not the
// full grid: skipped rows return instantly, so splitting over the full n
// would starve the owned rows' trial loops and idle cores.
// sim.Split guarantees both levels are at least 1 (a 0 would select
// GOMAXPROCS downstream; see TestOptionsSplitNeverZero).
func (o Options) split(n int) (int, Options) {
	if o.NumShards > 1 {
		owned := 0
		for i := 0; i < n; i++ {
			if o.owns(i) {
				owned++
			}
		}
		n = owned
	}
	gridW, trialW := sim.Split(o.Workers, n)
	o.Workers = trialW
	return gridW, o
}

// ParseShard parses a "k/n" shard selector (1-based k, as in -shard 2/3)
// into the 0-based Shard and the NumShards Options fields. An empty
// selector disables sharding.
func ParseShard(s string) (shard, numShards int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	k, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard selector %q is not of the form k/n", s)
	}
	ki, err := strconv.Atoi(strings.TrimSpace(k))
	if err != nil {
		return 0, 0, fmt.Errorf("shard selector %q: bad shard index: %v", s, err)
	}
	ni, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return 0, 0, fmt.Errorf("shard selector %q: bad shard count: %v", s, err)
	}
	if ni < 1 || ki < 1 || ki > ni {
		return 0, 0, fmt.Errorf("shard selector %q: want 1 <= k <= n", s)
	}
	return ki - 1, ni, nil
}

// DefaultOptions reproduces the paper's repetition count.
func DefaultOptions() Options { return Options{Trials: 100, Seed: 2026} }

// QuickOptions is for tests and fast iteration.
func QuickOptions() Options { return Options{Trials: 24, Seed: 2026} }

// Env bundles the shared simulation substrate of the evaluation.
type Env struct {
	Timing     *timing.Model
	Power      *power.Model
	Planner    *bridge.FaultModel
	Controller *bridge.FaultModel
	// Cache, when set, transparently reuses agent.Summary results across
	// identical grid points — within one process (Fig. 16's reliability
	// and efficiency sweeps share runOverall points), across warm reruns
	// (disk-backed stores), and across sharded machines (merged stores).
	Cache *cache.Store

	// flight coalesces concurrent misses on the same fingerprint: when two
	// sweeps running in parallel on this Env (e.g. two service jobs with
	// overlapping grids) both miss a point, one computes and the rest wait
	// for its summary instead of duplicating the Monte-Carlo work.
	flight sim.Flight[string, agent.Summary]
}

// cachedCompute is the cache-or-compute path behind every sweep: consult
// the cache, and on a miss compute under the per-fingerprint flight so the
// same point is never computed twice concurrently. The owner re-checks the
// cache after winning the flight slot, closing the window where a previous
// owner finished (and released its slot) between this caller's miss and
// its Do. The cancellation poll lives here — at the point boundary, before
// the cache consult and outside the flight closure — so canceling one job
// can never panic a concurrent job waiting on a shared flight slot. With
// no cache attached the job is simply computed.
func (e *Env) cachedCompute(opt Options, j *job) agent.Summary {
	opt.checkCanceled()
	if e.Cache == nil {
		return e.compute(opt, j)
	}
	if s, ok := e.Cache.Get(j.point); ok {
		return s
	}
	return e.flight.Do(j.point.Key(), func() agent.Summary {
		// The probe-then-Get shape keeps accounting exact: on the common
		// path (nothing landed in between) no extra miss is counted, and
		// when a just-finished owner did land the point, the Get records
		// the reuse as a hit.
		if e.Cache.Contains(j.point) {
			if s, ok := e.Cache.Get(j.point); ok {
				return s
			}
		}
		s := e.compute(opt, j)
		// A Put failure (e.g. an unwritable cache dir) must not fail the
		// sweep: the computed summary is still correct, only reuse is lost.
		_ = e.Cache.Put(j.point, s)
		return s
	})
}

// compute runs a job's Monte-Carlo loop.
func (e *Env) compute(opt Options, j *job) agent.Summary {
	if j.compute != nil {
		return j.compute(opt)
	}
	return e.runTask(j.task, j.cfg, opt)
}

// NewEnv builds the default JARVIS-1 environment.
func NewEnv() *Env {
	return &Env{
		Timing:     timing.Default(),
		Power:      power.Default(),
		Planner:    platforms.JARVIS1Planner.FaultModel(),
		Controller: platforms.JARVIS1Controller.FaultModel(),
	}
}

// episodeSpec is the JARVIS-1 energy footprint per invocation (Table 4).
func episodeSpec(vsActive bool) power.EpisodeSpec {
	spec := power.EpisodeSpec{
		PlannerMACsPerCall: platforms.JARVIS1Planner.MACs(),
		ControllerMACsStep: platforms.JARVIS1Controller.MACs(),
	}
	if vsActive {
		spec.PredictorMACsStep = platforms.EntropyPredictor.MACs()
	}
	return spec
}

// EpisodeEnergy computes the computational energy of an aggregated run,
// charging failed episodes at full execution (Sec. 6.1).
func (e *Env) EpisodeEnergy(s agent.Summary, vsActive bool) float64 {
	spec := episodeSpec(vsActive)
	total := e.Power.EpisodeEnergy(spec, s.AvgPlannerInvocations*float64(s.Trials),
		s.PlannerVoltageMV, s.StepsAtMV)
	return total / float64(s.Trials)
}

// runTask is the shared episode sweep helper. The base seed always comes
// from Options — callers pass fault/voltage configs, never seeds — so
// Options{Seed: 0} is honoured instead of being mistaken for "unset".
//
// Every sweep above this helper reads only the Summary aggregates, so the
// per-trial Result slice is dropped at the aggregation boundary
// (DiscardResults): without it, a grid sweep retained trials x points
// Result structs — each with its own StepsAtMV map — for the whole run.
// Callers that need per-trial results (traces, single-episode studies) use
// agent.Run/RunMany directly.
func (e *Env) runTask(task world.TaskName, cfg agent.Config, opt Options) agent.Summary {
	cfg.Task = task
	cfg.Seed = opt.Seed
	if cfg.Timing == nil {
		cfg.Timing = e.Timing
	}
	return agent.RunMany(cfg, opt.Trials,
		agent.RunOptions{Workers: opt.Workers, DiscardResults: true})
}

// cachePoint derives the canonical content-address of a runTask invocation.
// Every field of agent.Config that the episode outcome depends on is either
// mapped mechanically (task, fault-model identities, protections, error
// condition, voltages, trials, seed) or — for the two function-valued hooks
// a fingerprint cannot inspect — named by the caller: policyID identifies
// cfg.VSPolicy and override identifies corruption-override hooks. Call
// sites with unnamed function hooks or custom entropy predictors must use
// runTask directly instead of the cached path.
func cachePoint(task world.TaskName, cfg agent.Config, opt Options, policyID, override string) cache.Point {
	p := cache.Point{
		Task:        string(task),
		PlannerProt: protLabel(cfg.PlannerProt),
		ControlProt: protLabel(cfg.ControlProt),
		Policy:      policyID,
		VSInterval:  cfg.VSInterval,
		Override:    override,
		Trials:      opt.Trials,
		Seed:        opt.Seed,
	}
	if cfg.Planner != nil {
		p.Planner = cfg.Planner.ID()
	}
	if cfg.Controller != nil {
		p.Controller = cfg.Controller.ID()
	}
	// Normalize the defaults agent.Run applies, so a caller leaving a knob
	// at zero shares the point of one spelling the default out.
	if p.VSInterval == 0 {
		p.VSInterval = agent.DefaultVSInterval
	}
	p.PlannerV, p.ControllerV = cfg.PlannerVoltage, cfg.ControllerVoltage
	if p.PlannerV == 0 {
		p.PlannerV = timing.VNominal
	}
	if p.ControllerV == 0 || cfg.VSPolicy != nil {
		// An active VS policy owns the controller supply outright (the
		// episode starts at nominal until the first prediction), so the
		// constant-voltage knob is canonicalized away.
		p.ControllerV = timing.VNominal
	}
	if cfg.UniformBER >= 0 {
		p.ErrorModel = "uniform"
		p.BER = cfg.UniformBER
	} else {
		p.ErrorModel = "voltage"
	}
	return p
}

// job is one cacheable grid point: its content address and how to compute
// the summary stored under it — runTask on (task, cfg), or the bespoke
// Monte-Carlo loop compute when set. compute receives the point's share of
// the Workers budget; every other input is fixed when the job is built, so
// the address names it fully.
//
// Cached summaries carry no per-trial Results: the sweeps only read the
// aggregates, and runTask already drops them
// (agent.RunOptions.DiscardResults), so hits and misses return the same
// shape.
type job struct {
	point   cache.Point
	task    world.TaskName
	cfg     agent.Config
	compute func(Options) agent.Summary
}

// taskJob is the job of one runTask invocation; policyID and override name
// the function-valued hooks cachePoint cannot inspect.
func taskJob(task world.TaskName, cfg agent.Config, opt Options, policyID, override string) job {
	return job{point: cachePoint(task, cfg, opt, policyID, override), task: task, cfg: cfg}
}

// row is one shardable unit of a figure's grid: n jobs, built on demand
// by job, and eval, which turns their summaries into output rows. Static
// rows read every job. Minimal-voltage descents stop at the first supply
// that breaks quality, so their n jobs are a superset of what a run
// computes, and the jobs past the stop are never built. The same row list
// drives a figure's runner (sweep) and its cache plan (points), so the two
// cannot drift apart.
type row[T any] struct {
	n    int
	job  func(k int, opt Options) job
	eval func(sum func(k int) agent.Summary) []T
}

// static is a row that reads all n jobs in order: the k-th job yields the
// k-th output row.
func static[T any](n int, job func(k int, opt Options) job, out func(k int, s agent.Summary) T) row[T] {
	return row[T]{n: n, job: job, eval: func(sum func(k int) agent.Summary) []T {
		rows := make([]T, n)
		for k := range rows {
			rows[k] = out(k, sum(k))
		}
		return rows
	}}
}

// sweep runs one grid. Rows are indexed from 0 within the list; the rows
// this shard owns fan out over the grid share of the Workers budget, every
// job is served through the cache, and the owned rows' outputs are
// concatenated in row order (unowned rows are dropped).
func sweep[T any](e *Env, opt Options, rows []row[T]) []T {
	gridW, opt := opt.split(len(rows))
	chunks := sim.MapWith(len(rows), gridW, func() struct{} { return struct{}{} },
		func(i int, _ struct{}) []T {
			if !opt.owns(i) {
				return nil
			}
			r := rows[i]
			return r.eval(func(k int) agent.Summary {
				j := r.job(k, opt)
				return e.cachedCompute(opt, &j)
			})
		})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]T, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// points is the cache plan of one or more grids: the address of every job
// in the rows this shard owns, in row order. Each row list shards from
// index 0, exactly as sweep runs it.
func points[T any](opt Options, grids ...[]row[T]) []cache.Point {
	n := 0
	for _, rows := range grids {
		for i, r := range rows {
			if opt.owns(i) {
				n += r.n
			}
		}
	}
	pts := make([]cache.Point, 0, n)
	for _, rows := range grids {
		for i, r := range rows {
			if opt.owns(i) {
				for k := 0; k < r.n; k++ {
					pts = append(pts, r.job(k, opt).point)
				}
			}
		}
	}
	return pts
}

// BERSweep is the standard characterization BER grid.
func BERSweep(lo, hi float64) []float64 {
	var out []float64
	for b := lo; b <= hi*1.0001; b *= 10 {
		out = append(out, b, b*3)
	}
	if len(out) > 0 {
		out = out[:len(out)-1] // drop the 3x point past hi
	}
	return out
}

// table is a minimal fixed-width table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func sci(x float64) string { return fmt.Sprintf("%.1e", x) }
func steps(x float64) string {
	if x == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", x)
}
