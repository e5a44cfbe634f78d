// Package core integrates the three CREATE techniques into a deployable
// configuration — the paper's primary contribution (Sec. 5):
//
//   - AD, anomaly detection and clearance, guards both models at the
//     circuit level (Sec. 5.1);
//   - WR, weight-rotation-enhanced planning, hardens the LLM planner at the
//     model level (Sec. 5.2);
//   - VS, autonomy-adaptive voltage scaling, drives the controller's supply
//     from predicted action-logit entropy at the application level
//     (Sec. 5.3).
//
// The paper's deployment rule is AD+WR on the planner and AD+VS on the
// controller, with the planner at the lowest quality-preserving static
// voltage and the controller under a searched entropy-to-voltage policy.
package core

import (
	"math"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/ldo"
	"github.com/embodiedai/create/internal/platforms"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/power"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// Config selects which CREATE techniques are active and how the system is
// supplied.
type Config struct {
	// AD enables anomaly detection and clearance on both models.
	AD bool
	// WR enables weight-rotation-enhanced planning (planner only).
	WR bool
	// VS enables autonomy-adaptive voltage scaling with Policy (nil means
	// policy.Default); when disabled the controller runs at
	// ControllerVoltage.
	VS     bool
	Policy *policy.Mapping

	// PlannerVoltage / ControllerVoltage are the static supplies (defaults:
	// nominal). Under VS the controller voltage acts as the policy ceiling.
	PlannerVoltage    float64
	ControllerVoltage float64

	Trials int
	Seed   int64
}

// Nominal is the all-protections-off, nominal-voltage configuration.
func Nominal() Config {
	return Config{PlannerVoltage: timing.VNominal, ControllerVoltage: timing.VNominal}
}

// Full is the complete CREATE stack at an aggressive supply.
func Full(v float64) Config {
	return Config{AD: true, WR: true, VS: true, PlannerVoltage: v, ControllerVoltage: v}
}

// System is a configured embodied AI deployment: the JARVIS-1-shaped
// planner/controller pair on the voltage-scaled accelerator.
type System struct {
	Timing     *timing.Model
	Power      *power.Model
	LDO        *ldo.LDO
	Planner    *bridge.FaultModel
	Controller *bridge.FaultModel
}

// NewSystem builds the default system.
func NewSystem() *System {
	return &System{
		Timing:     timing.Default(),
		Power:      power.Default(),
		LDO:        ldo.Default(),
		Planner:    platforms.JARVIS1Planner.FaultModel(),
		Controller: platforms.JARVIS1Controller.FaultModel(),
	}
}

// Report summarizes a task evaluation under one configuration.
type Report struct {
	Task               world.TaskName
	SuccessRate        float64
	AvgSteps           float64
	EnergyJ            float64
	EffectiveVoltage   float64
	PlannerInvocations float64
}

// Run evaluates a task under the configuration.
func (s *System) Run(task world.TaskName, cfg Config) Report {
	if cfg.Trials == 0 {
		cfg.Trials = 100
	}
	if cfg.PlannerVoltage == 0 {
		cfg.PlannerVoltage = timing.VNominal
	}
	if cfg.ControllerVoltage == 0 {
		cfg.ControllerVoltage = timing.VNominal
	}
	ac := agent.Config{
		Task:              task,
		Planner:           s.Planner,
		Controller:        s.Controller,
		PlannerProt:       bridge.Protection{AD: cfg.AD, WR: cfg.WR},
		ControlProt:       bridge.Protection{AD: cfg.AD},
		UniformBER:        agent.VoltageMode,
		Timing:            s.Timing,
		PlannerVoltage:    s.LDO.Quantize(cfg.PlannerVoltage),
		ControllerVoltage: s.LDO.Quantize(cfg.ControllerVoltage),
		Seed:              cfg.Seed,
	}
	if cfg.VS {
		m := policy.Default
		if cfg.Policy != nil {
			m = *cfg.Policy
		}
		// Closure and VSLevels declaration share one quantize-then-ceiling
		// transform (VoltageLevelsWith), so the corruption table is built
		// once per Run from exactly the closure's image.
		ceiling := ac.ControllerVoltage
		xform := func(pv float64) float64 {
			v := s.LDO.Quantize(pv)
			if v > ceiling {
				v = ceiling
			}
			return v
		}
		ac.VSPolicy = func(h float64) float64 { return xform(m.Voltage(h)) }
		ac.VSLevels = m.VoltageLevelsWith(xform)
	}
	sum := agent.RunMany(ac, cfg.Trials, agent.RunOptions{})

	spec := power.EpisodeSpec{
		PlannerMACsPerCall: platforms.JARVIS1Planner.MACs(),
		ControllerMACsStep: platforms.JARVIS1Controller.MACs(),
	}
	if cfg.VS {
		spec.PredictorMACsStep = platforms.EntropyPredictor.MACs()
	}
	energy := s.Power.EpisodeEnergy(spec, sum.AvgPlannerInvocations*float64(sum.Trials),
		sum.PlannerVoltageMV, sum.StepsAtMV) / float64(sum.Trials)

	return Report{
		Task:               task,
		SuccessRate:        sum.SuccessRate,
		AvgSteps:           sum.AvgSteps,
		EnergyJ:            energy,
		EffectiveVoltage:   s.Power.EffectiveVoltage(sum.StepsAtMV),
		PlannerInvocations: sum.AvgPlannerInvocations,
	}
}

// MinimalVoltage searches the supply (in 25 mV steps) minimizing per-task
// energy subject to preserving at least `floor` of the nominal success rate
// — the Fig. 16(b) procedure. Lowering the voltage past the optimum raises
// error-induced step counts faster than the per-step energy falls (the
// Fig. 1(d) inversion), so the search is by energy among quality-preserving
// points.
func (s *System) MinimalVoltage(task world.TaskName, cfg Config, floor float64) (vmin float64, nominal, best Report) {
	nomCfg := cfg
	nomCfg.PlannerVoltage = timing.VNominal
	nomCfg.ControllerVoltage = timing.VNominal
	nominal = s.Run(task, nomCfg)
	target := nominal.SuccessRate * floor

	vmin = timing.VNominal
	best = nominal
	for v := 0.875; v >= timing.VMin-1e-9; v -= 0.025 {
		c := cfg
		c.PlannerVoltage = v
		c.ControllerVoltage = v
		r := s.Run(task, c)
		if r.SuccessRate+1e-12 < target {
			break
		}
		if r.EnergyJ < best.EnergyJ {
			vmin, best = math.Round(v*1000)/1000, r
		}
	}
	return vmin, nominal, best
}

// Saving is the fractional computational energy saving of `to` versus
// `from`.
func Saving(from, to Report) float64 {
	if from.EnergyJ == 0 {
		return 0
	}
	return 1 - to.EnergyJ/from.EnergyJ
}
