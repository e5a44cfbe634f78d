package experiments

import (
	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/baselines"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/world"
)

// ---------------------------------------------------------------------------
// Figure 20: comparison with existing techniques.

// ComparisonPoint is one (technique, voltage) sample of the Sec. 6.10
// comparison.
type ComparisonPoint struct {
	Technique   string
	Task        world.TaskName
	Voltage     float64
	SuccessRate float64
	AvgSteps    float64
	EnergyJ     float64
}

// Fig20Voltages is the comparison's supply grid.
var Fig20Voltages = []float64{0.90, 0.85, 0.80, 0.75, 0.70, 0.65}

// Fig20Baselines sweeps supply voltage for CREATE and the three baselines
// on wooden and stone: DMR stays reliable but pays >= 2x energy;
// ThUnderVolt's pruning degrades quality at low voltage; ABFT's recovery
// overhead explodes below ~0.85 V; CREATE alone keeps both quality and
// energy (Sec. 6.10: 35.0 % / 33.8 % savings over the best baseline).
func Fig20Baselines(e *Env, opt Options) []ComparisonPoint {
	return sweep(e, opt, fig20Rows(e))
}

// Fig20Points covers CREATE and every baseline across the comparison's
// supply grid.
func Fig20Points(e *Env, opt Options) []cache.Point {
	return points(opt, fig20Rows(e))
}

// fig20Rows is one row per (task, supply): job 0 is the full CREATE stack,
// job k the (k-1)-th baseline.
func fig20Rows(e *Env) []row[ComparisonPoint] {
	var rows []row[ComparisonPoint]
	for _, task := range []world.TaskName{world.TaskWooden, world.TaskStone} {
		for _, v := range Fig20Voltages {
			rows = append(rows, static(1+len(baselines.All), func(k int, opt Options) job {
				if k == 0 {
					cfg, policyID := e.createConfig(v)
					return taskJob(task, cfg, opt, policyID, "")
				}
				cfg, override := e.baselineConfig(baselines.All[k-1], v)
				return taskJob(task, cfg, opt, "", override)
			}, func(k int, s agent.Summary) ComparisonPoint {
				p := ComparisonPoint{Task: task, Voltage: v, SuccessRate: s.SuccessRate, AvgSteps: s.AvgSteps}
				if k == 0 {
					p.Technique, p.EnergyJ = "CREATE", e.EpisodeEnergy(s, true)
					return p
				}
				// A baseline pays its protection's energy factor.
				b := baselines.All[k-1]
				p.Technique, p.EnergyJ = b.Name, e.EpisodeEnergy(s, false)*b.EnergyFactor(e.Timing, v)
				return p
			}))
		}
	}
	return rows
}

// createConfig is the full CREATE stack at supply v (AD+WR planner, AD+VS
// controller with the supply as the VS ceiling).
func (e *Env) createConfig(v float64) (agent.Config, string) {
	cfg := agent.Config{
		Planner:     e.Planner,
		Controller:  e.Controller,
		PlannerProt: bridge.Protection{AD: true, WR: true},
		ControlProt: bridge.Protection{AD: true},
		UniformBER:  agent.VoltageMode,
		Timing:      e.Timing,
	}
	cfg.PlannerVoltage = v
	// The shared ceiling-at-supply policy of Fig. 16's "AD+WR+VS": same
	// closure, same cache identity, so matching (task, v, trials, seed)
	// points are shared with the Fig. 16 sweeps outright.
	vs, levels, policyID := ceiledPolicy(v)
	cfg.VSPolicy = vs
	cfg.VSLevels = levels
	return cfg, policyID
}

// baselineConfig is one prior-art technique at a fixed supply via the
// agent's override hooks. The hooks are pure functions of (technique,
// voltage), so the baseline's name plus the voltage fields fingerprint them
// exactly.
func (e *Env) baselineConfig(b baselines.Baseline, v float64) (agent.Config, string) {
	return agent.Config{
		UniformBER:        agent.VoltageMode,
		Timing:            e.Timing,
		PlannerVoltage:    v,
		ControllerVoltage: v,
		PlannerCorruptOverride: func() float64 {
			return b.PlannerCorrupt(e.Timing, v)
		},
		ControllerCorruptOverride: func(cv float64) float64 {
			return b.ControllerCorrupt(e.Timing, cv)
		},
	}, b.Name
}

// BestEnergyAtQuality returns, for one technique, the lowest per-task energy
// among voltage points preserving success >= floor.
func BestEnergyAtQuality(pts []ComparisonPoint, technique string, task world.TaskName, floor float64) (float64, bool) {
	best := 0.0
	found := false
	for _, p := range pts {
		if p.Technique != technique || p.Task != task || p.SuccessRate < floor {
			continue
		}
		if !found || p.EnergyJ < best {
			best, found = p.EnergyJ, true
		}
	}
	return best, found
}

// ---------------------------------------------------------------------------
// Figure 21 / policy search (Sec. 6.5).

// Fig21Policies returns the selected mappings with their level structure.
func Fig21Policies() []policy.Mapping { return policy.Selected }

// PolicySearch scores candidate mappings on a task (success rate and
// effective voltage) and returns the scored set — the search that selected
// policies A-F from 100 candidates.
func PolicySearch(e *Env, opt Options, candidates []policy.Mapping, task world.TaskName) []policy.Scored {
	var scored []policy.Scored
	for _, m := range candidates {
		cfg := agent.Config{
			Controller:  e.Controller,
			ControlProt: bridge.Protection{AD: true},
			UniformBER:  agent.VoltageMode,
			Timing:      e.Timing,
			VSPolicy:    m.Func(),
			VSLevels:    m.VoltageLevels(),
		}
		s := e.runTask(task, cfg, opt)
		scored = append(scored, policy.Scored{
			Mapping:          m,
			SuccessRate:      s.SuccessRate,
			EffectiveVoltage: e.Power.EffectiveVoltage(s.StepsAtMV),
		})
	}
	return scored
}
