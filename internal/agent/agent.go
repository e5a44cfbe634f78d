// Package agent is the episode runtime: it orchestrates the planner and
// controller in the JARVIS-1 execution paradigm (Sec. 2.1) — the planner
// decomposes the task into subtasks, the controller grounds each subtask
// into per-step actions, a subtask that stalls for ReplanLimit steps
// re-invokes the planner, and the episode fails outright at StepLimit steps.
//
// Faults enter through two hooks driven by the bridge's fault models:
// planner invocations corrupt plan subtasks, and controller steps corrupt
// sampled actions. Voltage scaling (Sec. 5.3) modulates the controller's
// corruption probability and is captured per step for energy accounting.
//
// The step loop is the hottest code in the repository — every layer above
// it (parallel trials, cached sweeps, serving, distributed dispatch)
// multiplies its cost — so it is written to be allocation-free in steady
// state: the softmax is computed once per step into a reused probability
// buffer (entropy and the sampled action both derive from it), the expert's
// logits and the world live in per-worker scratch, the controller
// corruption table is precomputed once per RunMany call, and the voltage
// histogram is a compact indexed structure converted to the public map
// shape only at the Result boundary. Every reuse path is bit-identical to
// the allocating one (see PERFORMANCE.md for the rules future optimizations
// must obey).
package agent

import (
	"math"
	"math/rand"

	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/planner"
	"github.com/embodiedai/create/internal/sim"
	"github.com/embodiedai/create/internal/tensor"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// Paper execution limits (Sec. 2.1): a subtask stalling for ReplanLimit
// steps re-invokes the planner; the task fails at StepLimit total steps.
const (
	DefaultReplanLimit = 600
	DefaultStepLimit   = 12000
	DefaultVSInterval  = 5
)

// Config describes one episode setup.
type Config struct {
	Task world.TaskName

	// Fault models (bridge-anchored). Nil models mean error-free execution.
	Planner     *bridge.FaultModel
	Controller  *bridge.FaultModel
	PlannerProt bridge.Protection
	ControlProt bridge.Protection

	// Error condition. If UniformBER >= 0 both models see the uniform error
	// model at that BER (Sec. 4 characterization). Set it to -1 (or use
	// VoltageMode) for voltage-driven per-bit rates through Timing (Sec. 6
	// evaluation).
	UniformBER        float64
	Timing            *timing.Model
	PlannerVoltage    float64
	ControllerVoltage float64

	// VSPolicy, when set, maps predicted entropy to the controller voltage
	// (autonomy-adaptive voltage scaling). It overrides ControllerVoltage.
	VSPolicy func(predictedEntropy float64) float64
	// VSLevels optionally declares the voltages VSPolicy can return. It is
	// purely a performance hint: when set, the controller corruption table
	// is precomputed at exactly these supply values (plus the nominal
	// start) once per RunMany call and shared read-only across all trials,
	// instead of being derived lazily per episode. A voltage the policy
	// returns that is not declared here falls back to the per-episode lazy
	// cache, so an incomplete (or absent) declaration only costs speed,
	// never correctness — and the hint is deliberately not part of the
	// cache fingerprint.
	VSLevels []float64
	// VSInterval is the number of steps between voltage updates (Fig. 15).
	VSInterval int
	// PredictEntropy estimates the step's error-free entropy before
	// execution. Nil uses NoisyOracle(0.34), matching the trained
	// predictor's accuracy (R^2 ~ 0.92, Fig. 14).
	PredictEntropy func(trueEntropy float64, rng *rand.Rand) float64

	ReplanLimit, StepLimit int

	// Overrides let alternative protection techniques (DMR, ThUnderVolt,
	// ABFT — Sec. 6.10) supply their own corruption probabilities instead of
	// the CREATE fault models.
	ControllerCorruptOverride func(voltage float64) float64
	PlannerCorruptOverride    func() float64

	// Trace records per-step entropy/voltage/phase when set (Figs. 10, 14b).
	Trace bool

	Seed int64
}

// withDefaults fills the zero-value knobs exactly the way Run historically
// did, so the episode engine below can assume a fully resolved config.
func (cfg Config) withDefaults() Config {
	if cfg.ReplanLimit == 0 {
		cfg.ReplanLimit = DefaultReplanLimit
	}
	if cfg.StepLimit == 0 {
		cfg.StepLimit = DefaultStepLimit
	}
	if cfg.VSInterval == 0 {
		cfg.VSInterval = DefaultVSInterval
	}
	if cfg.PredictEntropy == nil {
		cfg.PredictEntropy = NoisyOracle(0.34)
	}
	if cfg.PlannerVoltage == 0 {
		cfg.PlannerVoltage = timing.VNominal
	}
	if cfg.ControllerVoltage == 0 {
		cfg.ControllerVoltage = timing.VNominal
	}
	return cfg
}

// Result summarizes one episode.
type Result struct {
	Success bool
	Steps   int

	PlannerInvocations int
	// PlannerVoltageMV is the planner's supply during the episode.
	PlannerVoltageMV int
	// StepsAtMV histograms controller steps by supply millivolts — the
	// input to energy accounting.
	StepsAtMV map[int]int

	CorruptedSubtasks int
	CorruptedActions  int

	// Traces, populated when Config.Trace is set.
	EntropyTrace   []float64
	PredictedTrace []float64
	VoltageTrace   []float64
	PhaseTrace     []world.Phase
}

// NoisyOracle returns an entropy predictor with Gaussian error sigma — the
// behavioural stand-in for the trained CNN+MLP predictor when episodes must
// run fast. Sigma 0.34 reproduces the R^2 = 0.92 accuracy of Fig. 14.
func NoisyOracle(sigma float64) func(float64, *rand.Rand) float64 {
	return func(h float64, rng *rand.Rand) float64 {
		p := h + rng.NormFloat64()*sigma //create:rng-reviewed one Gaussian error draw per prediction; its stream position anchors the traced predictor dataset (Fig. 14)
		if p < 0 {
			p = 0
		}
		return p
	}
}

// ---------------------------------------------------------------------------
// Shared per-config state (hoisted out of the per-trial path).

// corruptTable is the controller's voltage -> corruption-probability lookup,
// precomputed once per RunMany call from the voltages the config declares it
// can visit (the constant supply, or nominal plus VSLevels) and shared
// read-only by every trial. It replaces recomputing the fault-model
// composition per episode — through the bridge's severity mutex — with a
// per-config tabulation.
//
// A hit requires the *exact* float64 supply to match a declared one, not
// just its millivolt key: q is then bit-identical to computing it at that
// voltage, so declaring levels can never change a result. Episode-level
// semantics (the legacy first-seen-wins per-mv cache) live in stepCorrupt,
// which consults this table only the first time an episode sees an mv key.
type corruptTable struct {
	vs  []float64
	mvs []int
	qs  []float64
}

// newCorruptTable tabulates q at every declared voltage of a resolved
// config. Undeclared voltages (a VSPolicy without VSLevels, or a policy
// returning something outside its declaration) miss the table and are
// computed lazily by the episode with legacy semantics.
func newCorruptTable(cfg Config) *corruptTable {
	var vs []float64
	if cfg.VSPolicy == nil {
		vs = []float64{cfg.ControllerVoltage}
	} else {
		// The episode starts at nominal until the first prediction; the
		// policy's reachable set is its declared levels.
		vs = make([]float64, 0, len(cfg.VSLevels)+1)
		vs = append(vs, timing.VNominal)
		vs = append(vs, cfg.VSLevels...)
	}
	t := &corruptTable{}
	for _, v := range vs {
		if _, ok := t.lookup(mv(v), v); ok {
			continue // duplicate declaration of the same supply
		}
		t.vs = append(t.vs, v)
		t.mvs = append(t.mvs, mv(v))
		t.qs = append(t.qs, cfg.controllerCorruptProb(v))
	}
	return t
}

// lookup returns the tabulated q for an exactly matching declared supply.
// The table is tiny (one entry per declared voltage level), so a linear
// scan beats hashing.
//
//create:zeroalloc
func (t *corruptTable) lookup(key int, v float64) (float64, bool) {
	for i, k := range t.mvs {
		if k == key && t.vs[i] == v {
			return t.qs[i], true
		}
	}
	return 0, false
}

// mvHist is the compact per-episode voltage histogram: parallel mv/count
// slices with a most-recent-bucket fast path (the voltage changes at most
// every VSInterval steps, so almost every add hits the previous bucket).
// It exists so the steady-state step loop never touches a Go map; the
// public Result keeps its map shape via toMap at the episode boundary.
type mvHist struct {
	mvs    []int
	counts []int
	last   int
}

//create:zeroalloc
func (h *mvHist) reset() {
	h.mvs = h.mvs[:0]
	h.counts = h.counts[:0]
	h.last = -1
}

//create:zeroalloc
func (h *mvHist) add(key int) {
	if h.last >= 0 && h.mvs[h.last] == key {
		h.counts[h.last]++
		return
	}
	for i, k := range h.mvs {
		if k == key {
			h.counts[i]++
			h.last = i
			return
		}
	}
	h.mvs = append(h.mvs, key) //create:alloc-ok amortized: a distinct mv key appends once, and reset keeps both backing arrays across episodes
	h.counts = append(h.counts, 1)
	h.last = len(h.mvs) - 1
}

// toMap converts to the public Result/energy-accounting shape. Always
// non-nil, matching the historical always-allocated map.
func (h *mvHist) toMap() map[int]int {
	m := make(map[int]int, len(h.mvs))
	for i, k := range h.mvs {
		m[k] = h.counts[i]
	}
	return m
}

// runScratch is one worker's reusable episode state: the world, the expert
// (each fully reseeded per trial), the shared step probability buffer, the
// voltage histogram, and the episode's corruption cache. sim.MapWith hands
// each worker goroutine exactly one of these, so buffer reuse composes with
// parallelism without locks.
type runScratch struct {
	rng    *rand.Rand
	w      *world.World
	expert *world.Expert
	probs  []float32
	hist   mvHist
	// qmvs/qvals is the per-episode corruption cache (reset per trial):
	// first-seen-wins per mv key, exactly the legacy lazy map but on
	// reusable slices.
	qmvs  []int
	qvals []float64
	ep    episode
}

func newRunScratch() *runScratch {
	return &runScratch{
		rng:   rand.New(rand.NewSource(0)),
		probs: make([]float32, world.NumActions),
	}
}

// ---------------------------------------------------------------------------
// Episode engine.

// episode is one in-flight episode over a worker's scratch. Its step method
// is the steady-state hot loop and is allocation-free (locked by the
// TestStepLoopZeroAllocs regression gate).
type episode struct {
	cfg   Config
	table *corruptTable
	sc    *runScratch
	spec  world.TaskSpec

	res            Result
	plan           []world.Subtask
	stepsInSubtask int
	voltage        float64

	// Index of the episode corruption cache's most recently used bucket:
	// between VS updates the voltage is constant, so nearly every step
	// short-circuits on it. -1 = nothing resolved yet.
	lastQIdx int
}

// Run executes one episode.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	return runEpisode(cfg, newCorruptTable(cfg), newRunScratch())
}

// Runner executes seed sweeps of one configuration. It resolves the config
// and composes the fault-model corruption table once — the table depends
// only on the config's voltage/error-model fields, never the seed — and
// reuses one episode scratch across its episodes, so loops that would pay
// newCorruptTable + newRunScratch per trial pay them once. A Runner must
// not be shared between concurrent episodes.
type Runner struct {
	cfg   Config
	table *corruptTable
	sc    *runScratch
}

// NewRunner builds a Runner for cfg with its own private scratch.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{cfg: cfg, table: newCorruptTable(cfg), sc: newRunScratch()}
}

// RunSeed plays one episode of the Runner's configuration at seed,
// byte-identical to agent.Run of the same config with that seed.
func (r *Runner) RunSeed(seed int64) Result {
	cfg := r.cfg
	cfg.Seed = seed
	return runEpisode(cfg, r.table, r.sc)
}

// runEpisode plays one episode on a worker's scratch. cfg must be resolved
// (withDefaults) and carry its per-config corruption table.
func runEpisode(cfg Config, table *corruptTable, sc *runScratch) Result {
	ep := startEpisode(cfg, table, sc)
	for ep.res.Steps < cfg.StepLimit {
		if ep.step() {
			break
		}
	}
	ep.res.StepsAtMV = sc.hist.toMap()
	ep.plan = nil // drop the last plan's backing array until the next trial
	return ep.res
}

// startEpisode resets the scratch for cfg and plays the opening planner
// invocation, returning the episode ready to step. Split from runEpisode so
// the allocation-regression test can measure a mid-episode step window.
func startEpisode(cfg Config, table *corruptTable, sc *runScratch) *episode {
	sc.rng.Seed(cfg.Seed) //create:rng-reviewed per-trial rewind: the agent stream restarts from cfg.Seed so every trial is a function of its seed alone
	spec := world.Specs[cfg.Task]
	if sc.w == nil {
		sc.w = world.New(spec.Biome, cfg.Seed+1)
	} else {
		sc.w.Reset(spec.Biome, cfg.Seed+1)
	}
	if sc.expert == nil {
		sc.expert = world.NewExpert(cfg.Seed + 2)
	} else {
		sc.expert.Reseed(cfg.Seed + 2)
	}
	sc.hist.reset()
	sc.qmvs = sc.qmvs[:0]
	sc.qvals = sc.qvals[:0]

	ep := &sc.ep
	*ep = episode{cfg: cfg, table: table, sc: sc, spec: spec, lastQIdx: -1}
	ep.res = Result{PlannerVoltageMV: mv(cfg.PlannerVoltage)}
	if cfg.Trace {
		// Traced episodes historically regrew four slices thousands of
		// times via append; one up-front allocation each replaces that. The
		// capacity is clamped: short traced episodes (OracleR2's clean
		// calibration runs finish in a few hundred steps) should not pay
		// four StepLimit-sized buffers, and past the clamp a long trace
		// costs only a couple of amortized doublings. The slices are
		// returned in the Result, so they cannot live in scratch.
		traceCap := cfg.StepLimit
		if traceCap > 4096 {
			traceCap = 4096
		}
		ep.res.EntropyTrace = make([]float64, 0, traceCap)
		ep.res.PredictedTrace = make([]float64, 0, traceCap)
		ep.res.VoltageTrace = make([]float64, 0, traceCap)
		ep.res.PhaseTrace = make([]world.Phase, 0, traceCap)
	}

	ep.plan = invokePlanner(cfg, sc.w, sc.rng, &ep.res)
	ep.voltage = cfg.ControllerVoltage
	if cfg.VSPolicy != nil {
		ep.voltage = timing.VNominal // until the first prediction
	}
	return ep
}

// step advances the episode by one controller step (or replans), returning
// true once the task is complete. It is the allocation-free hot loop; the
// only allocating paths are planner invocations (plan construction) and
// trace capture growth, both excluded from steady state.
//
//create:zeroalloc
func (ep *episode) step() (done bool) {
	cfg, sc, w, spec := &ep.cfg, ep.sc, ep.sc.w, &ep.spec

	// Finished plan but task incomplete (corrupted plan): replan.
	for len(ep.plan) > 0 && ep.plan[0].Done(w) {
		ep.plan = ep.plan[1:]
		ep.stepsInSubtask = 0
	}
	if w.Count(spec.Goal) >= spec.Count {
		ep.res.Success = true
		return true
	}
	if len(ep.plan) == 0 || ep.stepsInSubtask >= cfg.ReplanLimit {
		ep.plan = invokePlanner(*cfg, w, sc.rng, &ep.res)
		ep.stepsInSubtask = 0
		if len(ep.plan) == 0 {
			// Planner believes everything is done but the goal is not
			// reached; burn a step exploring to avoid a live-lock.
			ep.plan = []world.Subtask{{Kind: world.Nonsense}} //create:alloc-ok live-lock fallback: allocates only when the planner returns an empty plan, never in steady state
		}
	}
	goal := ep.plan[0]

	dec := sc.expert.Decide(w, goal)
	// One softmax per step: entropy and the sampled action both derive from
	// this probability vector. The arithmetic (SoftmaxInto, EntropyOfProbs,
	// SampleFromProbs) matches the historical Decision.Entropy +
	// Decision.Sample double computation bit for bit — same max
	// subtraction, same float64 accumulation order, same single
	// rng.Float64() draw.
	probs := tensor.SoftmaxInto(sc.probs, dec.Logits)
	needEntropy := cfg.Trace || (cfg.VSPolicy != nil && ep.res.Steps%cfg.VSInterval == 0)
	var entropy float64
	if needEntropy {
		// Entropy is consumed only by the VS predictor and traces; skipping
		// it elsewhere touches no RNG stream, so bytes cannot change.
		entropy = tensor.EntropyOfProbs(probs)
	}

	// Autonomy-adaptive voltage scaling: update every VSInterval steps
	// from the pre-execution entropy prediction (Sec. 5.3).
	if cfg.VSPolicy != nil && ep.res.Steps%cfg.VSInterval == 0 {
		ep.voltage = cfg.VSPolicy(cfg.PredictEntropy(entropy, sc.rng))
	}

	action := world.Action(tensor.SampleFromProbs(probs, sc.rng))
	q := ep.stepCorrupt(ep.voltage)
	if q > 0 && sc.rng.Float64() < q { //create:rng-reviewed corrupt gate short-circuits on q==0 so clean steps draw nothing; the resample below consumes exactly one more draw when the gate fires
		action = world.Action(sc.rng.Intn(world.NumActions))
		ep.res.CorruptedActions++
	}
	w.Step(action, dec.Goal)

	sc.hist.add(mv(ep.voltage))
	ep.res.Steps++
	ep.stepsInSubtask++

	if cfg.Trace {
		ep.res.EntropyTrace = append(ep.res.EntropyTrace, entropy) //create:alloc-ok tracing is diagnostic (Figs. 10, 14b), not the steady-state benchmark path
		// On VS-update steps this is a second predictor draw for the same
		// entropy. Reusing the VS path's value would skip one NormFloat64
		// and shift every subsequent draw in the stream — changing the
		// published bytes of every traced artifact (Fig. 10, Fig. 14's
		// dataset and tracking trace) — so the draw deliberately stays.
		ep.res.PredictedTrace = append(ep.res.PredictedTrace, cfg.PredictEntropy(entropy, sc.rng)) //create:alloc-ok tracing is diagnostic, not the steady-state benchmark path
		ep.res.VoltageTrace = append(ep.res.VoltageTrace, ep.voltage)
		ep.res.PhaseTrace = append(ep.res.PhaseTrace, dec.Phase) //create:alloc-ok tracing is diagnostic, not the steady-state benchmark path
	}
	return false
}

// stepCorrupt resolves the controller corruption probability at voltage v
// with exactly the legacy per-episode semantics: one first-seen-wins cache
// keyed by millivolts, whose first resolution for a key is q at the first
// voltage seen under it. The only difference is where that first q comes
// from — the shared per-config table when the voltage exactly matches a
// declared supply (bit-identical to computing it), a fresh computation
// otherwise — so neither the table nor the VSLevels hint can ever change
// an episode's bytes.
//
//create:zeroalloc
func (ep *episode) stepCorrupt(v float64) float64 {
	sc := ep.sc
	key := mv(v)
	if ep.lastQIdx >= 0 && sc.qmvs[ep.lastQIdx] == key {
		return sc.qvals[ep.lastQIdx]
	}
	for i, k := range sc.qmvs {
		if k == key {
			ep.lastQIdx = i
			return sc.qvals[i]
		}
	}
	q, ok := ep.table.lookup(key, v)
	if !ok {
		q = ep.cfg.controllerCorruptProb(v)
	}
	sc.qmvs = append(sc.qmvs, key) //create:alloc-ok amortized: one append per distinct mv key per episode, worker scratch keeps the capacity
	sc.qvals = append(sc.qvals, q)
	ep.lastQIdx = len(sc.qmvs) - 1
	return q
}

// VoltageMode is the UniformBER sentinel selecting voltage-driven error
// rates.
const VoltageMode = -1

// controllerCorruptProb resolves the per-step action corruption probability
// for the configured error condition at voltage v.
func (cfg Config) controllerCorruptProb(v float64) float64 {
	if cfg.ControllerCorruptOverride != nil {
		return cfg.ControllerCorruptOverride(v)
	}
	if cfg.Controller == nil {
		return 0
	}
	if cfg.UniformBER >= 0 {
		return cfg.Controller.CorruptProbAtBER(cfg.UniformBER, cfg.ControlProt)
	}
	return cfg.Controller.CorruptProbAtVoltage(cfg.Timing, v, cfg.ControlProt)
}

// plannerSubtaskCorruptProb resolves the per-plan-line corruption
// probability of a planner invocation (the planner fault model's unit is
// one subtask line, ~planner.TokensPerSubtask decoded tokens).
func (cfg Config) plannerSubtaskCorruptProb() float64 {
	if cfg.PlannerCorruptOverride != nil {
		return cfg.PlannerCorruptOverride()
	}
	if cfg.Planner == nil {
		return 0
	}
	if cfg.UniformBER >= 0 {
		return cfg.Planner.CorruptProbAtBER(cfg.UniformBER, cfg.PlannerProt)
	}
	return cfg.Planner.CorruptProbAtVoltage(cfg.Timing, cfg.PlannerVoltage, cfg.PlannerProt)
}

// invokePlanner produces a (possibly corrupted) plan for the current state.
func invokePlanner(cfg Config, w *world.World, rng *rand.Rand, res *Result) []world.Subtask {
	res.PlannerInvocations++
	plan := planner.Golden(cfg.Task, w)
	pSub := cfg.plannerSubtaskCorruptProb()
	if pSub <= 0 {
		return plan
	}
	corrupted := planner.Corrupt(plan, pSub, rng)
	for i := range plan {
		if corrupted[i] != plan[i] {
			res.CorruptedSubtasks++
		}
	}
	return corrupted
}

//create:zeroalloc
func mv(v float64) int { return int(math.Round(v * 1000)) }

// Summary aggregates repeated episodes (the paper repeats every trial >= 100
// times; Sec. 6.9 studies the repetition count).
type Summary struct {
	Trials      int
	SuccessRate float64
	// AvgSteps is the mean step count among successful trials (the paper's
	// "average steps" metric).
	AvgSteps float64
	// AvgPlannerInvocations and StepsAtMV aggregate energy inputs across all
	// trials (failed trials count at full execution, Sec. 6.1).
	AvgPlannerInvocations float64
	StepsAtMV             map[int]int
	PlannerVoltageMV      int
	Results               []Result
}

// RunOptions tune a RunMany invocation without touching the episode
// semantics.
type RunOptions struct {
	// Workers bounds the trial fan-out: <= 0 selects runtime.GOMAXPROCS(0),
	// 1 is the fully serial path.
	Workers int
	// DiscardResults drops the per-trial Result slice once the Summary
	// aggregates are computed. Sweeps that only read aggregates (every
	// experiments grid job) would otherwise retain trials x grid-points
	// Result structs — including their StepsAtMV maps and any traces — for
	// the lifetime of the sweep.
	DiscardResults bool
}

// RunMany executes trials episodes with distinct seeds and aggregates them,
// fanning trials out over o.Workers. Per-trial seeds are pure functions of
// the trial index (cfg.Seed + t*7919), so the parallel schedule cannot
// perturb any episode, and aggregation runs over the index-ordered result
// slice — the Summary is bit-for-bit identical to a serial loop (see
// TestRunManyParallelDeterminism). Per-config work — default resolution and
// the controller corruption table — happens exactly once here and is shared
// read-only by every trial; per-worker scratch (world, expert, buffers)
// rides through sim.MapWith, so steady-state trials allocate nothing but
// their Results.
func RunMany(cfg Config, trials int, o RunOptions) Summary {
	cfg = cfg.withDefaults()
	table := newCorruptTable(cfg)
	s := Summary{Trials: trials, StepsAtMV: make(map[int]int)}
	s.Results = sim.MapWith(trials, o.Workers, newRunScratch, func(t int, sc *runScratch) Result {
		c := cfg
		c.Seed = cfg.Seed + int64(t)*7919
		return runEpisode(c, table, sc)
	})
	successes := 0
	var stepSum, planSum float64
	for t, r := range s.Results {
		if r.Success {
			successes++
			stepSum += float64(r.Steps)
		}
		planSum += float64(r.PlannerInvocations)
		for mv, n := range r.StepsAtMV {
			s.StepsAtMV[mv] += n
		}
		// The planner supply is a config-level property shared by every
		// trial; set it once and assert the invariant rather than letting
		// whichever trial aggregates last win.
		if t == 0 {
			s.PlannerVoltageMV = r.PlannerVoltageMV
		} else if r.PlannerVoltageMV != s.PlannerVoltageMV {
			panic("agent: PlannerVoltageMV diverged across trials of one config")
		}
	}
	s.SuccessRate = float64(successes) / float64(trials)
	if successes > 0 {
		s.AvgSteps = stepSum / float64(successes)
	}
	s.AvgPlannerInvocations = planSum / float64(trials)
	if o.DiscardResults {
		s.Results = nil
	}
	return s
}
