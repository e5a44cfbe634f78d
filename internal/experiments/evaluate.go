package experiments

import (
	"strconv"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// ---------------------------------------------------------------------------
// Figure 13(a)-(c) and (e): AD / WR on planner and controller, and the
// AD+WR ablation.

// ProtectionPoint is one (BER, protection, task quality) sample.
type ProtectionPoint struct {
	BER         float64
	Task        world.TaskName
	Protection  string
	SuccessRate float64
	AvgSteps    float64
}

// protLabel names a protection configuration.
func protLabel(p bridge.Protection) string {
	switch {
	case p.AD && p.WR:
		return "AD+WR"
	case p.AD:
		return "AD"
	case p.WR:
		return "WR"
	default:
		return "none"
	}
}

// Fig13AD compares planner (a) and controller (b) resilience with and
// without anomaly detection and clearance.
func Fig13AD(e *Env, opt Options) (plannerPts, controllerPts []ProtectionPoint) {
	sweeps := fig13ADSweeps(e)
	for i := 0; i < len(sweeps); i += 2 {
		plannerPts = append(plannerPts, sweep(e, opt, sweeps[i])...)
		controllerPts = append(controllerPts, sweep(e, opt, sweeps[i+1])...)
	}
	return plannerPts, controllerPts
}

// Fig13WR compares the planner with and without weight rotation.
func Fig13WR(e *Env, opt Options) []ProtectionPoint {
	return sweepEach(e, opt, fig13WRSweeps(e))
}

// Fig13AblationPlanner runs the AD+WR ablation (Fig. 13(e)): the combination
// preserves task quality up to BER ~1e-2.
func Fig13AblationPlanner(e *Env, opt Options) []ProtectionPoint {
	return sweepEach(e, opt, fig13AblationSweeps(e))
}

// Fig13Points covers all four panels: the AD, WR and AD+WR protection
// sweeps and the voltage-scaling grid.
func Fig13Points(e *Env, opt Options) []cache.Point {
	sweeps := append(fig13ADSweeps(e), fig13WRSweeps(e)...)
	sweeps = append(sweeps, fig13AblationSweeps(e)...)
	return append(points(opt, sweeps...), points(opt, fig13VSRows(e))...)
}

// fig13ADSweeps lists panels (a) and (b) in run order: per protection, the
// planner sweep, then the controller sweep.
func fig13ADSweeps(e *Env) [][]row[ProtectionPoint] {
	var sweeps [][]row[ProtectionPoint]
	for _, prot := range []bridge.Protection{{}, {AD: true}} {
		sweeps = append(sweeps,
			protSweepRows(e, BERSweep(1e-8, 1e-4), true, prot),
			protSweepRows(e, BERSweep(1e-5, 1e-2), false, prot))
	}
	return sweeps
}

func fig13WRSweeps(e *Env) [][]row[ProtectionPoint] {
	return protSweeps(e, BERSweep(1e-8, 1e-4), bridge.Protection{}, bridge.Protection{WR: true})
}

func fig13AblationSweeps(e *Env) [][]row[ProtectionPoint] {
	return protSweeps(e, BERSweep(1e-8, 1e-2), bridge.Protection{}, bridge.Protection{AD: true},
		bridge.Protection{WR: true}, bridge.Protection{AD: true, WR: true})
}

// protSweeps is one planner sweep per protection.
func protSweeps(e *Env, bers []float64, prots ...bridge.Protection) [][]row[ProtectionPoint] {
	sweeps := make([][]row[ProtectionPoint], len(prots))
	for i, prot := range prots {
		sweeps[i] = protSweepRows(e, bers, true, prot)
	}
	return sweeps
}

// sweepEach runs several sweeps in turn and concatenates their rows; each
// sweep shards from its own index 0.
func sweepEach[T any](e *Env, opt Options, sweeps [][]row[T]) []T {
	var out []T
	for _, rows := range sweeps {
		out = append(out, sweep(e, opt, rows)...)
	}
	return out
}

// protSweepRows builds the task-major (task x BER) grid of one protection
// sweep, one point per row.
func protSweepRows(e *Env, bers []float64, hitPlanner bool, prot bridge.Protection) []row[ProtectionPoint] {
	tasks := []world.TaskName{world.TaskWooden, world.TaskStone}
	rows := make([]row[ProtectionPoint], 0, len(tasks)*len(bers))
	for _, task := range tasks {
		for _, ber := range bers {
			rows = append(rows, static(1, func(_ int, opt Options) job {
				cfg := agent.Config{UniformBER: ber}
				if hitPlanner {
					cfg.Planner = e.Planner
					cfg.PlannerProt = prot
				} else {
					cfg.Controller = e.Controller
					cfg.ControlProt = prot
				}
				return taskJob(task, cfg, opt, "", "")
			}, func(_ int, s agent.Summary) ProtectionPoint {
				return ProtectionPoint{ber, task, protLabel(prot), s.SuccessRate, s.AvgSteps}
			}))
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 13(d)/(f): autonomy-adaptive voltage scaling.

// VSPoint is one voltage-scaling evaluation sample: a policy (or constant
// voltage) with its task quality and effective voltage.
type VSPoint struct {
	Task             world.TaskName
	Policy           string
	AD               bool
	SuccessRate      float64
	AvgSteps         float64
	EffectiveVoltage float64
	EnergyJ          float64
}

// Fig13VS evaluates the Fig. 21 policies plus constant-voltage baselines on
// wooden and stone, with and without AD (Fig. 13(d) and the (f) ablation):
// adaptive policies advance the success-vs-effective-voltage frontier, and
// AD shifts the whole frontier to lower voltages.
func Fig13VS(e *Env, opt Options) []VSPoint {
	return sweep(e, opt, fig13VSRows(e))
}

// fig13VSRows is the policy/constant-voltage grid of Fig. 13(d)/(f), one
// point per row: per task and AD setting, the constant-voltage baselines,
// then the adaptive policies A-F.
func fig13VSRows(e *Env) []row[VSPoint] {
	consts := []float64{0.90, 0.85, 0.80, 0.75, 0.70, 0.65}
	var rows []row[VSPoint]
	for _, task := range []world.TaskName{world.TaskWooden, world.TaskStone} {
		for _, ad := range []bool{false, true} {
			for k := 0; k < len(consts)+len(policy.Selected); k++ {
				name := "const"
				if k >= len(consts) {
					name = policy.Selected[k-len(consts)].Name
				}
				rows = append(rows, static(1, func(_ int, opt Options) job {
					cfg := agent.Config{
						Controller:  e.Controller,
						ControlProt: bridge.Protection{AD: ad},
						UniformBER:  agent.VoltageMode,
						Timing:      e.Timing,
					}
					if k < len(consts) {
						cfg.ControllerVoltage = consts[k]
						return taskJob(task, cfg, opt, "", "")
					}
					m := policy.Selected[k-len(consts)]
					cfg.VSPolicy = m.Func()
					cfg.VSLevels = m.VoltageLevels()
					return taskJob(task, cfg, opt, m.Name, "")
				}, func(_ int, s agent.Summary) VSPoint {
					return VSPoint{
						Task:             task,
						Policy:           name,
						AD:               ad,
						SuccessRate:      s.SuccessRate,
						AvgSteps:         s.AvgSteps,
						EffectiveVoltage: e.Power.EffectiveVoltage(s.StepsAtMV),
						EnergyJ:          e.EpisodeEnergy(s, k >= len(consts)),
					}
				}))
			}
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 15: voltage update interval.

// IntervalPoint is one (interval, quality, energy) sample.
type IntervalPoint struct {
	Task        world.TaskName
	Interval    int
	SuccessRate float64
	EnergyJ     float64
}

// Fig15Interval sweeps the VS update interval {1, 5, 10, 20}: 1 and 5 track
// workload changes, 10 and 20 respond too slowly; 5 has slightly lower
// overhead than 1 (Sec. 6.5).
func Fig15Interval(e *Env, opt Options) []IntervalPoint {
	return sweep(e, opt, fig15Rows(e))
}

// Fig15Points covers the update-interval sweep.
func Fig15Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig15Rows(e))
}

// fig15Rows is the (task x update interval) grid of Fig. 15, one point per
// row.
func fig15Rows(e *Env) []row[IntervalPoint] {
	var rows []row[IntervalPoint]
	for _, task := range []world.TaskName{world.TaskWooden, world.TaskStone} {
		for _, interval := range []int{1, 5, 10, 20} {
			rows = append(rows, static(1, func(_ int, opt Options) job {
				cfg := agent.Config{
					Controller:  e.Controller,
					ControlProt: bridge.Protection{AD: true},
					UniformBER:  agent.VoltageMode,
					Timing:      e.Timing,
					VSPolicy:    policy.Default.Func(),
					VSLevels:    policy.Default.VoltageLevels(),
					VSInterval:  interval,
				}
				return taskJob(task, cfg, opt, policy.Default.Name, "")
			}, func(_ int, s agent.Summary) IntervalPoint {
				// Slower updates leave the voltage stale across phase
				// changes; per-update predictor/LDO overhead favours 5
				// over 1.
				return IntervalPoint{task, interval, s.SuccessRate, e.EpisodeEnergy(s, true)}
			}))
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 16: overall evaluation across tasks.

// OverallPoint is one (task, configuration) sample of the full-system
// evaluation.
type OverallPoint struct {
	Task        world.TaskName
	Config      string
	SuccessRate float64
	AvgSteps    float64
	EnergyJ     float64
}

// Fig16Configs are the four stacked configurations of Fig. 16.
var Fig16Configs = []string{"none", "AD", "AD+WR", "AD+WR+VS"}

// Fig16Tasks are the eight evaluation workloads of Fig. 16.
var Fig16Tasks = []world.TaskName{
	world.TaskWooden, world.TaskStone, world.TaskCharcoal, world.TaskChicken,
	world.TaskCoal, world.TaskIron, world.TaskWool, world.TaskSeed,
}

// Fig16Reliability evaluates all four configurations at a fixed 0.75 V
// supply (Fig. 16(a)): unprotected operation collapses, AD recovers most
// success, AD+WR approaches error-free quality, VS adds no degradation.
func Fig16Reliability(e *Env, opt Options) []OverallPoint {
	return sweep(e, opt, fig16ReliabilityRows(e))
}

// Fig16Points covers the reliability grid at 0.75 V plus the efficiency
// sweep's full supply grid. The descent early-exits per (task, config), so
// this is a superset of a cold run's compute set.
func Fig16Points(e *Env, opt Options) []cache.Point {
	return append(points(opt, fig16ReliabilityRows(e)), points(opt, fig16EfficiencyRows(e))...)
}

// fig16ReliabilityRows is the (task x configuration) grid at 0.75 V, one
// point per row.
func fig16ReliabilityRows(e *Env) []row[OverallPoint] {
	rows := make([]row[OverallPoint], 0, len(Fig16Tasks)*len(Fig16Configs))
	for _, task := range Fig16Tasks {
		for _, name := range Fig16Configs {
			rows = append(rows, static(1, func(_ int, opt Options) job {
				return e.overallJob(task, name, 0.75, opt)
			}, func(_ int, s agent.Summary) OverallPoint {
				return OverallPoint{task, name, s.SuccessRate, s.AvgSteps, e.EpisodeEnergy(s, name == "AD+WR+VS")}
			}))
		}
	}
	return rows
}

// overallConfig is the agent configuration and cache identity of one
// Fig. 16 grid point. For "AD+WR+VS" the controller runs the adaptive
// policy (floored at the supplied voltage) while the planner stays at the
// fixed supply.
func (e *Env) overallConfig(name string, v float64) (agent.Config, string) {
	cfg := agent.Config{
		Planner:    e.Planner,
		Controller: e.Controller,
		UniformBER: agent.VoltageMode,
		Timing:     e.Timing,
	}
	cfg.PlannerVoltage = v
	cfg.ControllerVoltage = v
	switch name {
	case "AD":
		cfg.PlannerProt = bridge.Protection{AD: true}
		cfg.ControlProt = bridge.Protection{AD: true}
	case "AD+WR":
		cfg.PlannerProt = bridge.Protection{AD: true, WR: true}
		cfg.ControlProt = bridge.Protection{AD: true}
	case "AD+WR+VS":
		cfg.PlannerProt = bridge.Protection{AD: true, WR: true}
		cfg.ControlProt = bridge.Protection{AD: true}
	}
	policyID := ""
	if name == "AD+WR+VS" {
		cfg.VSPolicy, cfg.VSLevels, policyID = ceiledPolicy(v)
	}
	return cfg, policyID
}

// overallJob is one Fig. 16 configuration at supply v.
func (e *Env) overallJob(task world.TaskName, name string, v float64, opt Options) job {
	cfg, policyID := e.overallConfig(name, v)
	return taskJob(task, cfg, opt, policyID, "")
}

// ceiledPolicy returns the default VS mapping ceilinged at supply v (never
// above the scenario's budget) together with its reachable voltage set and
// its cache identity. Fig. 16's overallJob and Fig. 20's CREATE rows share
// this exact closure and therefore its fingerprint — keeping both in one
// place is what makes that sharing safe: the behaviour and the identity
// cannot drift apart. The ceiling is spelled into the identity rather than
// inferred from the voltage fields, so the fingerprint stays correct even
// for call sites whose planner supply differs from the ceiling. Closure
// and VSLevels declaration share one clamp transform (VoltageLevelsWith),
// so the declared set is exactly the closure's image — the precondition
// for the precomputed corruption table to be bit-identical to the lazy
// path.
func ceiledPolicy(v float64) (func(float64) float64, []float64, string) {
	base := policy.Default
	clamp := func(pv float64) float64 {
		if pv > v {
			return v
		}
		return pv
	}
	vs := func(h float64) float64 { return clamp(base.Voltage(h)) }
	return vs, base.VoltageLevelsWith(clamp), base.Name + "<=" + strconv.FormatFloat(v, 'g', -1, 64)
}

// EfficiencyPoint is one task's minimal-voltage energy for a configuration
// (Fig. 16(b)).
type EfficiencyPoint struct {
	Task world.TaskName
	// MinVoltage is the lowest supply sustaining >= 90 % of the error-free
	// success rate.
	Config     string
	MinVoltage float64
	EnergyJ    float64
	// SavingVsNominal is 1 - E/E_nominal.
	SavingVsNominal float64
}

// Fig16Efficiency finds, per task and configuration, the lowest voltage
// preserving success, and the resulting computational energy saving
// (Fig. 16(b): 40.6 % average for full CREATE).
func Fig16Efficiency(e *Env, opt Options) []EfficiencyPoint {
	return sweep(e, opt, fig16EfficiencyRows(e))
}

// fig16Voltages is the efficiency sweep's descending supply grid.
var fig16Voltages = []float64{0.90, 0.875, 0.85, 0.825, 0.80, 0.775, 0.75, 0.725, 0.70, 0.675, 0.65}

// fig16EfficiencyRows is one row per task: job 0 is the clean nominal
// baseline, then every (configuration, supply) point of the descent. Rows
// are at task grain because the per-config descent must stay serial: it
// early-exits at the first quality-violating supply, and that exit decides
// which points are computed at all.
func fig16EfficiencyRows(e *Env) []row[EfficiencyPoint] {
	nv := len(fig16Voltages)
	rows := make([]row[EfficiencyPoint], 0, len(Fig16Tasks))
	for _, task := range Fig16Tasks {
		rows = append(rows, row[EfficiencyPoint]{
			n: 1 + len(Fig16Configs)*nv,
			job: func(k int, opt Options) job {
				if k == 0 {
					return e.overallJob(task, "none", timing.VNominal, opt)
				}
				return e.overallJob(task, Fig16Configs[(k-1)/nv], fig16Voltages[(k-1)%nv], opt)
			},
			eval: func(sum func(int) agent.Summary) []EfficiencyPoint {
				clean := sum(0)
				target := clean.SuccessRate * 0.9
				nominalEnergy := e.EpisodeEnergy(clean, false)
				out := make([]EfficiencyPoint, 0, len(Fig16Configs))
				for ci, name := range Fig16Configs {
					best := EfficiencyPoint{Task: task, Config: name, MinVoltage: timing.VNominal, EnergyJ: nominalEnergy}
					for vi, v := range fig16Voltages {
						s := sum(1 + ci*nv + vi)
						if s.SuccessRate+1e-9 < target {
							break // voltages are descending; success only gets worse
						}
						// Pick the energy optimum among quality-preserving
						// voltages: past it, error-induced step inflation
						// outgrows the per-step saving (the Fig. 1(d)
						// inversion).
						if energy := e.EpisodeEnergy(s, name == "AD+WR+VS"); energy < best.EnergyJ {
							best = EfficiencyPoint{Task: task, Config: name, MinVoltage: v, EnergyJ: energy}
						}
					}
					best.SavingVsNominal = 1 - best.EnergyJ/nominalEnergy
					out = append(out, best)
				}
				return out
			},
		})
	}
	return rows
}

// AverageSaving aggregates Fig. 16(b) rows for one configuration.
func AverageSaving(pts []EfficiencyPoint, config string) float64 {
	var sum float64
	n := 0
	for _, p := range pts {
		if p.Config == config {
			sum += p.SavingVsNominal
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---------------------------------------------------------------------------
// Figure 19: uniform vs hardware error model.

// ErrorModelPoint compares the two error models at matched aggregate BER.
type ErrorModelPoint struct {
	BER         float64
	Model       string // "uniform" or "hardware"
	Target      string // "planner" or "controller"
	SuccessRate float64
}

// errorModelConfig is the agent configuration of one Fig. 19 run.
func (e *Env) errorModelConfig(ber float64, target, modelName string) agent.Config {
	cfg := agent.Config{Timing: e.Timing}
	if modelName == "uniform" {
		cfg.UniformBER = ber
	} else {
		cfg.UniformBER = agent.VoltageMode
		v := e.Timing.VoltageForBER(ber)
		cfg.PlannerVoltage = v
		cfg.ControllerVoltage = v
	}
	if target == "planner" {
		cfg.Planner = e.Planner
	} else {
		cfg.Controller = e.Controller
	}
	return cfg
}

// errorModelNames are the two error abstractions Fig. 19 compares.
var errorModelNames = []string{"uniform", "hardware"}

// Fig19ErrorModels validates that resilience conclusions hold under both
// the uniform abstraction (Sec. 4) and the voltage-profiled LUT (Sec. 6):
// trends agree despite slight numerical differences (Sec. 6.9).
func Fig19ErrorModels(e *Env, opt Options) []ErrorModelPoint {
	return sweep(e, opt, fig19Rows(e))
}

// Fig19Points covers both error models at every owned (BER, target) pair.
func Fig19Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig19Rows(e))
}

// fig19Rows is one row per (BER, target) pair, evaluated under both error
// models. Sharding stays at this pair grain so a shard's rows keep the
// uniform/hardware interleaving of the unsharded output.
func fig19Rows(e *Env) []row[ErrorModelPoint] {
	var rows []row[ErrorModelPoint]
	add := func(bers []float64, target string) {
		for _, ber := range bers {
			rows = append(rows, static(len(errorModelNames), func(k int, opt Options) job {
				return taskJob(world.TaskWooden, e.errorModelConfig(ber, target, errorModelNames[k]), opt, "", "")
			}, func(k int, s agent.Summary) ErrorModelPoint {
				return ErrorModelPoint{ber, errorModelNames[k], target, s.SuccessRate}
			}))
		}
	}
	add(BERSweep(1e-9, 1e-7), "planner")
	add(BERSweep(1e-6, 1e-3), "controller")
	return rows
}
