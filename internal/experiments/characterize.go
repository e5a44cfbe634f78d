package experiments

import (
	"io"
	"math/rand"
	"strconv"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/inject"
	"github.com/embodiedai/create/internal/model"
	"github.com/embodiedai/create/internal/nn"
	"github.com/embodiedai/create/internal/systolic"
	"github.com/embodiedai/create/internal/tensor"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// ---------------------------------------------------------------------------
// Figure 1 / Figure 4: error model characterization.

// VoltageBERPoint is one sample of the voltage -> BER curve (Fig. 1(b)).
type VoltageBERPoint struct {
	Voltage float64
	BER     float64
}

// Fig1b samples the aggregate BER across the LDO voltage range.
func Fig1b(e *Env) []VoltageBERPoint {
	var out []VoltageBERPoint
	for _, entry := range e.Timing.LUT(20) {
		out = append(out, VoltageBERPoint{entry.Voltage, entry.BER})
	}
	return out
}

// BitRatePoint is one per-bit error rate sample (Fig. 4(a)).
type BitRatePoint struct {
	Voltage float64
	Bit     int
	Rate    float64
}

// Fig4a samples the per-bit timing-error surface.
func Fig4a(e *Env) []BitRatePoint {
	var out []BitRatePoint
	for _, v := range []float64{0.85, 0.80, 0.75, 0.70, 0.65} {
		for bit, r := range e.Timing.BitRates(v) {
			out = append(out, BitRatePoint{v, bit, r})
		}
	}
	return out
}

// Fig4bResult compares injected error magnitudes against the clean runtime
// activation range at 0.85 V (Fig. 4(b)).
type Fig4bResult struct {
	CleanAbsMax    float64
	ErrorAbsMedian float64
	// LargeErrorFrac is the fraction of injected errors whose magnitude
	// exceeds the whole clean activation range.
	LargeErrorFrac float64
}

// Fig4b injects at 0.85 V into a planner-shaped GEMM and histograms the
// error magnitudes against the clean output distribution.
func Fig4b(e *Env, opt Options) Fig4bResult {
	rng := rand.New(rand.NewSource(opt.Seed))
	x := tensor.NewMat(64, 256)
	w := tensor.NewMat(256, 256)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64() * 0.1)
	}
	clean := systolic.NewEngine(1).MatMul(x, w, 0)
	cleanMax := float64(tensor.AbsMax(clean.Data))

	eng := systolic.NewEngine(2)
	eng.Injector = inject.Voltage{Model: e.Timing, V: 0.85}
	var mags []float64
	for rep := 0; rep < 400 && len(mags) < 400; rep++ {
		out := eng.MatMul(x, w, 0)
		for i := range out.Data {
			d := float64(out.Data[i]) - float64(clean.Data[i])
			if d != 0 {
				if d < 0 {
					d = -d
				}
				mags = append(mags, d)
			}
		}
	}
	large := 0
	for _, m := range mags {
		if m > cleanMax {
			large++
		}
	}
	res := Fig4bResult{CleanAbsMax: cleanMax}
	if len(mags) > 0 {
		res.ErrorAbsMedian = median(mags)
		res.LargeErrorFrac = float64(large) / float64(len(mags))
	}
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// ---------------------------------------------------------------------------
// Figure 5(a)-(d): planner vs controller resilience.

// ResiliencePoint is one (BER, task quality) sample.
type ResiliencePoint struct {
	BER         float64
	Task        world.TaskName
	SuccessRate float64
	AvgSteps    float64
}

// Fig5Planner sweeps uniform BER through the planner only (Fig. 5(a)/(b)).
func Fig5Planner(e *Env, opt Options) []ResiliencePoint {
	return sweep(e, opt, fig5PlannerRows(e))
}

// Fig5Controller sweeps uniform BER through the controller only
// (Fig. 5(c)/(d)).
func Fig5Controller(e *Env, opt Options) []ResiliencePoint {
	return sweep(e, opt, fig5ControllerRows(e))
}

// Fig5Points covers the planner and controller resilience sweeps of Fig. 5
// (the per-component severities and activation profiles run outside the
// summary cache).
func Fig5Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig5PlannerRows(e), fig5ControllerRows(e))
}

// Fig1Points covers fig1's cached sweep, the Fig. 5 controller curve (the
// BER-vs-voltage curve is closed-form).
func Fig1Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig5ControllerRows(e))
}

func fig5PlannerRows(e *Env) []row[ResiliencePoint] {
	return resilienceRows(e, []world.TaskName{world.TaskWooden, world.TaskStone},
		BERSweep(1e-9, 1e-6), true, false)
}

func fig5ControllerRows(e *Env) []row[ResiliencePoint] {
	return resilienceRows(e, []world.TaskName{world.TaskWooden, world.TaskStone},
		BERSweep(1e-6, 1e-3), false, true)
}

// resilienceRows builds the task-major (task x BER) grid of an unprotected
// resilience sweep, one point per row.
func resilienceRows(e *Env, tasks []world.TaskName, bers []float64, hitPlanner, hitController bool) []row[ResiliencePoint] {
	rows := make([]row[ResiliencePoint], 0, len(tasks)*len(bers))
	for _, task := range tasks {
		for _, ber := range bers {
			rows = append(rows, static(1, func(_ int, opt Options) job {
				cfg := agent.Config{UniformBER: ber}
				if hitPlanner {
					cfg.Planner = e.Planner
				}
				if hitController {
					cfg.Controller = e.Controller
				}
				return taskJob(task, cfg, opt, "", "")
			}, func(_ int, s agent.Summary) ResiliencePoint {
				return ResiliencePoint{ber, task, s.SuccessRate, s.AvgSteps}
			}))
		}
	}
	return rows
}

// RenderResilience prints a resilience sweep as the paper's success/steps
// series.
func RenderResilience(w io.Writer, title string, pts []ResiliencePoint) {
	t := &table{header: []string{"task", "BER", "success", "avg steps"}}
	for _, p := range pts {
		t.add(string(p.Task), sci(p.BER), pct(p.SuccessRate), steps(p.AvgSteps))
	}
	io.WriteString(w, title+"\n")
	t.render(w)
}

// ---------------------------------------------------------------------------
// Figure 5(e)-(h): per-component resilience of the miniatures.

// ComponentSeverity is the measured per-fault severity of one network
// component.
type ComponentSeverity struct {
	Model     string // "planner" or "controller"
	Component string
	// HighBitSeverity sums the material per-fault severities of the
	// out-of-range bits — the damage channel that separates pre-norm
	// components (O, Down) from the rest.
	HighBitSeverity float64
}

// Fig5Components measures per-component fault severity on the miniature
// planner and controller: in the planner, components feeding normalization
// (O, Down) are markedly weaker than K; the controller varies little.
func Fig5Components(opt Options) []ComponentSeverity {
	mo := bridge.DefaultMeasureOptions()
	mo.TrialsPerBit = 8
	mo.Seed = opt.Seed
	var out []ComponentSeverity
	for _, comp := range []string{".K", ".O", ".Down", ".Up"} {
		sev := bridge.MeasurePlannerSeverity(model.DefaultPlannerConfig(), bridge.Protection{},
			withComponent(mo, comp))
		out = append(out, ComponentSeverity{"planner", comp[1:], highBits(sev)})
	}
	for _, comp := range []string{".K", ".O", ".FC1", ".FC2"} {
		sev := bridge.MeasureControllerSeverity(model.DefaultControllerConfig(), bridge.Protection{},
			withComponent(mo, comp))
		out = append(out, ComponentSeverity{"controller", comp[1:], highBits(sev)})
	}
	return out
}

func withComponent(mo bridge.MeasureOptions, comp string) bridge.MeasureOptions {
	mo.Component = comp
	return mo
}

func highBits(s bridge.Severity) float64 {
	var x float64
	for b := s.BoundBit; b < timing.AccBits; b++ {
		x += s.Bits[b]
	}
	return x
}

// ---------------------------------------------------------------------------
// Figure 5(i)-(l): activation distributions and normalization skew.

// ActivationProfile summarizes a model's pre-norm residual stream and how a
// single in-range fault skews its normalization statistics.
type ActivationProfile struct {
	Model string
	// AbsMax and Std of the clean residual stream (Fig. 5(i)/(j)).
	AbsMax, Std float64
	// SigmaClean/SigmaFaulty are the normalization scale statistics of one
	// row before and after planting a fault at the activation range's edge
	// (Fig. 5(k)/(l)).
	SigmaClean, SigmaFaulty float64
}

// Fig5Activations profiles the planner's outlier-ridden residual stream
// against the controller's uniform one, and the corresponding normalization
// skew under a single in-range fault.
func Fig5Activations(opt Options) []ActivationProfile {
	p := model.NewPlanner(model.DefaultPlannerConfig())
	var planner []float32
	p.Probe = func(layer int, h *tensor.Mat) {
		if layer == p.Cfg.Layers-1 {
			planner = append(planner[:0], h.Data...)
		}
	}
	p.Forward(nn.Float{}, p.PromptTokens(16, opt.Seed))

	c := model.NewController(model.DefaultControllerConfig())
	var controller []float32
	c.Probe = func(layer int, h *tensor.Mat) {
		if layer == c.Cfg.Layers-1 {
			controller = append(controller[:0], h.Data...)
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c.Forward(nn.Float{}, model.RandomObservation(rng))

	profile := func(name string, data []float32, width int) ActivationProfile {
		row := append([]float32(nil), data[:width]...)
		_, sClean := nn.RowMoments(row)
		// Plant a fault at the edge of the observed range (what survives
		// AD) on a non-outlier channel.
		row[1] = tensor.AbsMax(data)
		_, sFaulty := nn.RowMoments(row)
		return ActivationProfile{
			Model:       name,
			AbsMax:      float64(tensor.AbsMax(data)),
			Std:         tensor.Std(data),
			SigmaClean:  sClean,
			SigmaFaulty: sFaulty,
		}
	}
	return []ActivationProfile{
		profile("planner", planner, p.Cfg.Dim),
		profile("controller", controller, c.Cfg.Dim),
	}
}

// ---------------------------------------------------------------------------
// Figure 6: subtask resilience diversity.

// Fig6Tasks are the six subtask-diversity workloads.
var Fig6Tasks = []world.TaskName{
	world.TaskStone, world.TaskLog, world.TaskIron,
	world.TaskCoal, world.TaskWool, world.TaskChicken,
}

// Fig6Subtasks sweeps controller BER across structurally different tasks:
// deterministic chains (log, stone) collapse abruptly past 1e-4 while
// stochastic interactions (chicken, wool) degrade gradually.
func Fig6Subtasks(e *Env, opt Options) []ResiliencePoint {
	return sweep(e, opt, fig6Rows(e))
}

// Fig6Points covers the subtask-diversity sweep.
func Fig6Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig6Rows(e))
}

func fig6Rows(e *Env) []row[ResiliencePoint] {
	return resilienceRows(e, Fig6Tasks, BERSweep(1e-6, 1e-2), false, true)
}

// ---------------------------------------------------------------------------
// Figure 7: stage-specific resilience.

// StageProfile aggregates per-phase statistics of clean episodes.
type StageProfile struct {
	Phase world.Phase
	// MeanEntropy of the action logits in this phase (uniform vs picky,
	// Fig. 7).
	MeanEntropy float64
	Fraction    float64 // share of steps spent in this phase
}

// Fig7Stages runs a clean log-task episode and profiles action-logit
// entropy by phase: exploration is near-uniform, execution is picky.
func Fig7Stages(e *Env, opt Options) []StageProfile {
	cfg := agent.Config{Task: world.TaskLog, UniformBER: 0, Trace: true, Seed: opt.Seed}
	sums := map[world.Phase]float64{}
	counts := map[world.Phase]int{}
	total := 0
	// Only the seed varies across trials: one Runner shares the resolved
	// config, corruption table, and episode scratch across the sweep.
	runner := agent.NewRunner(cfg)
	for t := 0; t < opt.Trials/4+1; t++ {
		r := runner.RunSeed(opt.Seed + int64(t)*31)
		for i, ph := range r.PhaseTrace {
			sums[ph] += r.EntropyTrace[i]
			counts[ph]++
			total++
		}
	}
	var out []StageProfile
	for _, ph := range []world.Phase{world.PhaseExplore, world.PhaseApproach, world.PhaseExecute} {
		if counts[ph] == 0 {
			continue
		}
		out = append(out, StageProfile{
			Phase:       ph,
			MeanEntropy: sums[ph] / float64(counts[ph]),
			Fraction:    float64(counts[ph]) / float64(total),
		})
	}
	return out
}

// StageCorruption measures how corruption during a specific phase affects
// the mine-logs subtask (Fig. 7: critical steps break chains, exploration
// tolerates noise). It returns success rates when errors are confined to
// one phase.
type StageCorruption struct {
	Phase       world.Phase
	SuccessRate float64
	AvgSteps    float64
}

// Fig7InjectionQ is the per-step corruption probability of the Fig. 7
// phase-targeted injection experiment, shared by every runner of the figure.
const Fig7InjectionQ = 0.5

// Fig7PhaseInjection injects a fixed action-corruption probability only
// during the given phase of the log task. Rows are cached (the aggregate is
// a pure function of the fingerprint) and sharded at row grain, so sharded
// and served runs reuse them like any other grid point.
func Fig7PhaseInjection(e *Env, opt Options, q float64) []StageCorruption {
	return sweep(e, opt, fig7Rows(q))
}

// Fig7Points covers the phase-targeted injection rows (the stage profile
// runs uncached episodes).
func Fig7Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig7Rows(Fig7InjectionQ))
}

// fig7Rows is one row per corrupted phase. The bespoke episode loop has no
// agent.Config to map mechanically, so the error-model tag and override
// name identify the loop and its target phase; BER carries the per-step
// corruption probability q.
func fig7Rows(q float64) []row[StageCorruption] {
	var rows []row[StageCorruption]
	for _, target := range []world.Phase{world.PhaseExplore, world.PhaseExecute} {
		rows = append(rows, static(1, func(_ int, opt Options) job {
			return job{
				point: cache.Point{
					Task:       string(world.TaskLog),
					ErrorModel: "phase-targeted",
					BER:        q,
					Override:   "phase-inject/" + strconv.Itoa(int(target)),
					Trials:     opt.Trials,
					Seed:       opt.Seed,
				},
				compute: func(o Options) agent.Summary {
					success, stepsSum, n := 0, 0.0, 0
					sc := &phaseScratch{}
					for t := 0; t < o.Trials; t++ {
						r := runPhaseTargeted(sc, world.TaskLog, q, target, o.Seed+int64(t)*17)
						if r.ok {
							success++
							stepsSum += float64(r.steps)
							n++
						}
					}
					sum := agent.Summary{Trials: o.Trials, SuccessRate: float64(success) / float64(o.Trials)}
					if n > 0 {
						sum.AvgSteps = stepsSum / float64(n)
					}
					return sum
				},
			}
		}, func(_ int, s agent.Summary) StageCorruption {
			return StageCorruption{Phase: target, SuccessRate: s.SuccessRate, AvgSteps: s.AvgSteps}
		}))
	}
	return rows
}

type phaseResult struct {
	ok    bool
	steps int
}

// phaseScratch pools the bespoke loop's per-trial state the same way the
// agent's runScratch does: world, expert and RNG are reseeded per trial —
// byte-identical to fresh construction — instead of reallocated.
type phaseScratch struct {
	rng    *rand.Rand
	w      *world.World
	expert *world.Expert
}

// runPhaseTargeted is a bespoke episode loop that corrupts actions only in
// the targeted phase.
func runPhaseTargeted(sc *phaseScratch, task world.TaskName, q float64, target world.Phase, seed int64) phaseResult {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed) //create:rng-reviewed per-trial rewind: the stream restarts from seed so every trial is a function of its seed alone
	}
	rng := sc.rng
	spec := world.Specs[task]
	if sc.w == nil {
		sc.w = world.New(spec.Biome, seed+1)
	} else {
		sc.w.Reset(spec.Biome, seed+1)
	}
	if sc.expert == nil {
		sc.expert = world.NewExpert(seed + 2)
	} else {
		sc.expert.Reseed(seed + 2)
	}
	w, expert := sc.w, sc.expert
	st := world.Subtask{Kind: world.MineLog, Item: world.Log, Count: spec.Count}
	for step := 0; step < 4000; step++ {
		if st.Done(w) {
			return phaseResult{ok: true, steps: step}
		}
		dec := expert.Decide(w, st)
		action := dec.Sample(rng)
		if dec.Phase == target && rng.Float64() < q {
			action = world.Action(rng.Intn(world.NumActions))
		}
		w.Step(action, dec.Goal)
	}
	return phaseResult{}
}

// ---------------------------------------------------------------------------
// Figure 8(a): runtime GEMM output distribution.

// GEMMProfile summarizes the runtime GEMM output distribution of the
// miniature pipeline: most values near zero, none near the accumulator's
// significant-bit range — the property the anomaly bound exploits.
type GEMMProfile struct {
	// FracNearZero is the fraction of outputs within 10 % of the range.
	FracNearZero float64
	// MaxAccBits is the highest accumulator bit any clean output touches.
	MaxAccBits int
}

// Fig8GEMMProfile profiles clean accumulator values across a planner
// forward pass.
func Fig8GEMMProfile(opt Options) GEMMProfile {
	p := model.NewPlanner(model.DefaultPlannerConfig())
	eng := systolic.NewEngine(opt.Seed)
	be := nn.NewSystolic(eng)
	be.Calibrating = true

	var all []int32
	// Wrap: accumulate raw accumulator values via a counting pass.
	tokens := p.PromptTokens(16, opt.Seed)
	// Run calibration to install profiles, then collect accumulators
	// layer by layer using Accumulate on representative shapes.
	p.Forward(be, tokens)
	be.Calibrating = false

	x := tensor.NewMat(16, 64)
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	acc, _ := eng.Accumulate(x, p.Blocks[0].Attn.Q.W)
	all = append(all, acc...)
	acc, _ = eng.Accumulate(x, p.Blocks[0].Attn.K.W)
	all = append(all, acc...)

	maxBit := 0
	nearZero := 0
	var absMax int32
	for _, v := range all {
		if v < 0 {
			v = -v
		}
		if v > absMax {
			absMax = v
		}
	}
	for _, v := range all {
		if v < 0 {
			v = -v
		}
		if float64(v) < 0.1*float64(absMax) {
			nearZero++
		}
	}
	for b := timing.AccBits - 1; b >= 0; b-- {
		if absMax >= int32(1)<<uint(b) {
			maxBit = b
			break
		}
	}
	return GEMMProfile{
		FracNearZero: float64(nearZero) / float64(len(all)),
		MaxAccBits:   maxBit,
	}
}

// ---------------------------------------------------------------------------
// Figure 9(b): pre/post-rotation activation distribution.

// RotationProfile compares the planner residual stream before and after the
// Hadamard weight rotation.
type RotationProfile struct {
	AbsMaxBefore, AbsMaxAfter float64
	StdBefore, StdAfter       float64
	// OutputDrift is the max logit difference between the rotated and
	// original networks on the same prompt (must be ~0: rotation is
	// function preserving).
	OutputDrift float64
}

// Fig9Rotation measures outlier dispersal by weight rotation.
func Fig9Rotation(opt Options) RotationProfile {
	cfg := model.DefaultPlannerConfig()
	base := model.NewPlanner(cfg)
	rot := model.NewPlanner(cfg)
	rot.ApplyWeightRotation()

	capture := func(p *model.Planner) []float32 {
		var data []float32
		p.Probe = func(layer int, h *tensor.Mat) {
			if layer == p.Cfg.Layers-1 {
				data = append(data[:0], h.Data...)
			}
		}
		p.Forward(nn.Float{}, p.PromptTokens(16, opt.Seed))
		p.Probe = nil
		return data
	}
	before := capture(base)
	after := capture(rot)

	tokens := base.PromptTokens(16, opt.Seed)
	l1 := base.Forward(nn.Float{}, tokens)
	l2 := rot.Forward(nn.Float{}, tokens)

	return RotationProfile{
		AbsMaxBefore: float64(tensor.AbsMax(before)),
		AbsMaxAfter:  float64(tensor.AbsMax(after)),
		StdBefore:    tensor.Std(before),
		StdAfter:     tensor.Std(after),
		OutputDrift:  tensor.MaxAbsDiff(l1, l2),
	}
}

// ---------------------------------------------------------------------------
// Figure 10: entropy curve across timesteps.

// Fig10EntropyCurve returns the per-step entropy trace of one clean episode
// (higher entropy = non-critical exploration, lower = critical execution).
func Fig10EntropyCurve(opt Options, task world.TaskName) ([]float64, []world.Phase) {
	cfg := agent.Config{Task: task, UniformBER: 0, Trace: true, Seed: opt.Seed}
	r := agent.Run(cfg)
	return r.EntropyTrace, r.PhaseTrace
}
