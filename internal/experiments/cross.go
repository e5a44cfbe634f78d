package experiments

import (
	"fmt"
	"math/rand"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/platforms"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// ---------------------------------------------------------------------------
// Figure 17: cross-platform generality.
//
// Planner savings (AD+WR) are evaluated on JARVIS-1 (Minecraft episodes),
// OpenVLA (LIBERO) and RoboFlamingo (CALVIN); controller savings (AD+VS) on
// JARVIS-1, Octo and RT-1 (OXE). LIBERO/CALVIN/OXE episodes are abstract
// phase/step models (see platforms.CrossTask) driven by the same fault
// models; what transfers is the workload shape from Table 4.

// CrossPoint is one (platform, task) energy-saving sample.
type CrossPoint struct {
	Platform    string
	Task        string
	Class       platforms.Class
	SuccessRate float64
	// Saving is the computational energy saving at the lowest
	// quality-preserving voltage versus nominal operation.
	Saving float64
}

// plannerDescentVoltages is the minimal-voltage search grid of the Fig. 17
// planner rows.
func plannerDescentVoltages() []float64 {
	var out []float64
	for v := 0.88; v >= 0.60; v -= 0.02 {
		out = append(out, v)
	}
	return out
}

// crossPlannerPairs and crossControllerPairs are the abstract-episode
// platform/task groups of Fig. 17, in row order.
var crossPlannerPairs = []struct {
	Spec  platforms.Spec
	Tasks []platforms.CrossTask
}{
	{platforms.OpenVLA, platforms.LIBEROTasks},
	{platforms.RoboFlamingo, platforms.CALVINTasks},
}

var crossControllerPairs = []struct {
	Spec  platforms.Spec
	Tasks []platforms.CrossTask
}{
	{platforms.Octo, platforms.OXEControllerTasks[:3]},
	{platforms.RT1, platforms.OXEControllerTasks[3:]},
}

// jarvisPlannerTasks and jarvisControllerTasks are the Minecraft rows.
var (
	jarvisPlannerTasks    = []world.TaskName{world.TaskWooden, world.TaskStone}
	jarvisControllerTasks = []world.TaskName{world.TaskCharcoal, world.TaskChicken}
)

// Fig17CrossPlatform evaluates energy savings across all platforms and
// tasks (Fig. 17: planners average ~50 % with AD+WR, controllers ~40 % with
// AD+VS). Every Monte-Carlo loop behind a row — Minecraft episodes and
// abstract episodes alike — is served through the content-addressed cache.
func Fig17CrossPlatform(e *Env, opt Options) []CrossPoint {
	return sweep(e, opt, fig17Rows(e))
}

// Fig17Points covers every cross-platform row. The descents early-exit, so
// this is a superset of a cold run's compute set. Fig. 18 shares this
// exact point set (its chip-level rows are derived from the same Fig. 17
// sweep).
func Fig17Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig17Rows(e))
}

// fig17Rows lists the rows at (platform, task) grain in print order, one
// shard counter across all four kinds: the JARVIS-1 rows reuse the
// Minecraft pipeline, the cross-platform rows run the abstract
// manipulation episodes.
func fig17Rows(e *Env) []row[CrossPoint] {
	var rows []row[CrossPoint]
	for _, task := range jarvisPlannerTasks {
		rows = append(rows, e.jarvisPlannerRow(task))
	}
	for _, task := range jarvisControllerTasks {
		rows = append(rows, e.jarvisControllerRow(task))
	}
	for _, pair := range crossPlannerPairs {
		fm := pair.Spec.FaultModel()
		for _, task := range pair.Tasks {
			rows = append(rows, e.crossPlannerRow(fm, pair.Spec, task))
		}
	}
	for _, pair := range crossControllerPairs {
		fm := pair.Spec.FaultModel()
		for _, task := range pair.Tasks {
			rows = append(rows, e.crossControllerRow(fm, pair.Spec, task))
		}
	}
	return rows
}

// jarvisPlannerRow finds the planner's minimal AD+WR voltage on a
// Minecraft task and reports the saving. Job 0 is the clean baseline, job
// k the descent's (k-1)-th voltage-mode point.
func (e *Env) jarvisPlannerRow(task world.TaskName) row[CrossPoint] {
	descent := plannerDescentVoltages()
	return row[CrossPoint]{
		n: 1 + len(descent),
		job: func(k int, opt Options) job {
			if k == 0 {
				return taskJob(task, agent.Config{UniformBER: 0}, opt, "", "")
			}
			cfg := agent.Config{
				Planner:        e.Planner,
				PlannerProt:    bridge.Protection{AD: true, WR: true},
				UniformBER:     agent.VoltageMode,
				Timing:         e.Timing,
				PlannerVoltage: descent[k-1],
			}
			return taskJob(task, cfg, opt, "", "")
		},
		eval: func(sum func(int) agent.Summary) []CrossPoint {
			clean := sum(0)
			target := clean.SuccessRate * 0.9
			best, bestRate := timing.VNominal, clean.SuccessRate
			for k, v := range descent {
				s := sum(1 + k)
				if s.SuccessRate < target {
					break
				}
				best, bestRate = v, s.SuccessRate
			}
			return []CrossPoint{{
				Platform: platforms.JARVIS1Planner.Name, Task: string(task),
				Class: platforms.PlannerClass, SuccessRate: bestRate,
				Saving: 1 - (best/timing.VNominal)*(best/timing.VNominal),
			}}
		},
	}
}

// jarvisControllerRow runs AD+VS on a Minecraft task.
func (e *Env) jarvisControllerRow(task world.TaskName) row[CrossPoint] {
	return static(1, func(_ int, opt Options) job {
		cfg := agent.Config{
			Controller: e.Controller, ControlProt: bridge.Protection{AD: true},
			UniformBER: agent.VoltageMode, Timing: e.Timing,
			VSPolicy: policy.PolicyF.Func(),
			VSLevels: policy.PolicyF.VoltageLevels(),
		}
		return taskJob(task, cfg, opt, policy.PolicyF.Name, "")
	}, func(_ int, s agent.Summary) CrossPoint {
		veff := e.Power.EffectiveVoltage(s.StepsAtMV)
		return CrossPoint{
			Platform: platforms.JARVIS1Controller.Name, Task: string(task),
			Class: platforms.ControllerClass, SuccessRate: s.SuccessRate,
			Saving: 1 - (veff/timing.VNominal)*(veff/timing.VNominal),
		}
	})
}

// crossPlannerRow evaluates AD+WR on an abstract manipulation task: the
// planner decomposes the instruction into phases; a corrupted phase forces
// a re-plan; the episode fails after too many re-plans. Job k is the
// descent's k-th voltage. The bespoke loop has no agent.Config to map
// mechanically, so each point's override names the loop and the task
// string embeds the episode shape (the phase count the loop consumes).
func (e *Env) crossPlannerRow(fm *bridge.FaultModel, spec platforms.Spec, task platforms.CrossTask) row[CrossPoint] {
	prot := bridge.Protection{AD: true, WR: true}
	descent := plannerDescentVoltages()
	return row[CrossPoint]{
		n: len(descent),
		job: func(k int, opt Options) job {
			v := descent[k]
			return job{
				point: cache.Point{
					Task:        fmt.Sprintf("cross/%s#p%d", task.Name, task.Phases),
					Planner:     fm.ID(),
					PlannerProt: protLabel(prot),
					ErrorModel:  "voltage",
					PlannerV:    v,
					Override:    "cross-planner",
					Trials:      opt.Trials,
					Seed:        opt.Seed,
				},
				compute: func(o Options) agent.Summary {
					pCorrupt := fm.CorruptProbAtVoltage(e.Timing, v, prot)
					rng := rand.New(rand.NewSource(o.Seed))
					success := 0
					for t := 0; t < o.Trials; t++ {
						replans := 0
						phase := 0
						for phase < task.Phases && replans <= 3 {
							if rng.Float64() < pCorrupt {
								replans++ // corrupted instruction wastes the phase budget
								continue
							}
							phase++
						}
						if phase >= task.Phases {
							success++
						}
					}
					return agent.Summary{Trials: o.Trials, SuccessRate: float64(success) / float64(o.Trials)}
				},
			}
		},
		eval: func(sum func(int) agent.Summary) []CrossPoint {
			best := timing.VNominal
			bestRate := 1.0
			for k, v := range descent {
				rate := sum(k).SuccessRate
				if rate < 0.9 {
					break
				}
				best, bestRate = v, rate
			}
			return []CrossPoint{{
				Platform: spec.Name, Task: task.Name, Class: platforms.PlannerClass,
				SuccessRate: bestRate,
				Saving:      1 - (best/timing.VNominal)*(best/timing.VNominal),
			}}
		},
	}
}

// crossControllerRow evaluates AD+VS on an abstract manipulation task:
// steps alternate between approach (high entropy) and precision segments
// (low entropy); corrupted precision steps repeat the segment. The loop
// aggregates into the same Summary shape the cache stores: success rate
// plus the per-voltage step histogram the effective-voltage metric is
// derived from. Deriving Veff from the histogram on the compute path too
// keeps computed and replayed rows bit-identical. The point's task string
// embeds both shape parameters the loop consumes.
func (e *Env) crossControllerRow(fm *bridge.FaultModel, spec platforms.Spec, task platforms.CrossTask) row[CrossPoint] {
	prot := bridge.Protection{AD: true}
	vs := policy.PolicyF
	return static(1, func(_ int, opt Options) job {
		return job{
			point: cache.Point{
				Task:        fmt.Sprintf("cross/%s#p%dx%d", task.Name, task.Phases, task.StepsPerPhase),
				Controller:  fm.ID(),
				ControlProt: protLabel(prot),
				ErrorModel:  "voltage",
				Policy:      vs.Name,
				Override:    "cross-controller",
				Trials:      opt.Trials,
				Seed:        opt.Seed,
			},
			compute: func(o Options) agent.Summary {
				rng := rand.New(rand.NewSource(o.Seed))
				sum := agent.Summary{Trials: o.Trials, StepsAtMV: make(map[int]int)}
				record := func(v float64) {
					sum.StepsAtMV[int(v*1000+0.5)]++
				}
				// Both segments run at fixed entropies, so the policy
				// voltages — and the precision segment's corruption
				// probability, a pure function of (timing model, voltage,
				// protection) — are loop invariants. Hoisting them out of
				// the trial loop replaces a fault-model composition per
				// precision step with one per sweep, byte-identically.
				vApproach := vs.Voltage(3.5)
				vPrecision := vs.Voltage(0.3)
				q := fm.CorruptProbAtVoltage(e.Timing, vPrecision, prot)
				success := 0
				for t := 0; t < o.Trials; t++ {
					steps := 0
					ok := true
					for ph := 0; ph < task.Phases && ok; ph++ {
						// Approach segment: high entropy, tolerant.
						for i := 0; i < task.StepsPerPhase/2; i++ {
							record(vApproach)
							steps++
						}
						// Precision segment: low entropy, corruption
						// repeats progress.
						remaining := task.StepsPerPhase / 2
						for remaining > 0 {
							record(vPrecision)
							steps++
							if steps > task.Phases*task.StepsPerPhase*6 {
								ok = false
								break
							}
							if rng.Float64() < q {
								remaining = task.StepsPerPhase / 2 // segment restarts
								continue
							}
							remaining--
						}
					}
					if ok {
						success++
					}
				}
				sum.SuccessRate = float64(success) / float64(o.Trials)
				return sum
			},
		}
	}, func(_ int, s agent.Summary) CrossPoint {
		veff := e.Power.EffectiveVoltage(s.StepsAtMV)
		return CrossPoint{
			Platform: spec.Name, Task: task.Name, Class: platforms.ControllerClass,
			SuccessRate: s.SuccessRate,
			Saving:      1 - (veff/timing.VNominal)*(veff/timing.VNominal),
		}
	})
}

// AverageSavingByClass aggregates Fig. 17 rows.
func AverageSavingByClass(pts []CrossPoint, class platforms.Class) float64 {
	var sum float64
	n := 0
	for _, p := range pts {
		if p.Class == class {
			sum += p.Saving
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
