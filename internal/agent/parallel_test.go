package agent

import (
	"reflect"
	"testing"

	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// determinismConfigs covers the distinct RNG-consuming code paths: clean
// episodes, uniform-BER controller faults, planner faults, and the
// voltage-scaled path with entropy prediction and tracing.
func determinismConfigs() map[string]Config {
	pm, cm := testModels()
	return map[string]Config{
		"clean": {Task: world.TaskWooden, UniformBER: 0, Seed: 42},
		"controller-uniform": {Task: world.TaskStone, Controller: cm,
			UniformBER: 3e-4, ControlProt: bridge.Protection{AD: true}, Seed: 7},
		"planner-uniform": {Task: world.TaskStone, Planner: pm, UniformBER: 1e-8, Seed: 5},
		"voltage-scaled": {Task: world.TaskLog, Controller: cm, UniformBER: VoltageMode,
			Timing: timing.Default(), Trace: true, Seed: 19,
			VSPolicy: func(h float64) float64 {
				if h > 2 {
					return 0.70
				}
				return 0.85
			}},
	}
}

// TestRunManyParallelDeterminism is the regression gate for the parallel
// engine: for every config and any worker count, RunMany must return
// a Summary deeply identical to the serial path — same Results order, same
// StepsAtMV histogram, same float aggregates bit for bit.
func TestRunManyParallelDeterminism(t *testing.T) {
	const trials = 8
	for name, cfg := range determinismConfigs() {
		serial := RunMany(cfg, trials, RunOptions{Workers: 1})
		for _, workers := range []int{2, 3, trials, 0} {
			parallel := RunMany(cfg, trials, RunOptions{Workers: workers})
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s: workers=%d diverged from serial\nserial:   %+v\nparallel: %+v",
					name, workers, serial, parallel)
			}
		}
	}
}

// TestRunManyMatchesRunMany pins the public entry point to the engine: the
// parallel-by-default RunMany must agree with the explicit serial path.
func TestRunManyMatchesRunMany(t *testing.T) {
	cfg := Config{Task: world.TaskStone, UniformBER: 0, Seed: 31}
	if got, want := RunMany(cfg, 6, RunOptions{}), RunMany(cfg, 6, RunOptions{Workers: 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunMany(default options) != serial RunMany\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestSeedStability pins the RNG stream itself: these exact rates were
// produced by the seed implementation, and any refactor that perturbs seed
// derivation (cfg.Seed + t*7919), RNG consumption order, or aggregation
// must fail here rather than silently drifting every figure.
func TestSeedStability(t *testing.T) {
	_, cm := testModels()
	clean := RunMany(Config{Task: world.TaskWooden, UniformBER: 0, Seed: 42}, 16, RunOptions{})
	faulty := RunMany(Config{Task: world.TaskStone, Controller: cm,
		UniformBER: 2e-4, Seed: 7}, 16, RunOptions{})
	if clean.SuccessRate != 1.0 || clean.AvgSteps != 102.8125 {
		t.Errorf("clean wooden@seed42 = (%v, %v), want pinned (1.0, 102.8125)",
			clean.SuccessRate, clean.AvgSteps)
	}
	if faulty.SuccessRate != 0.5 || faulty.AvgSteps != 8421.375 {
		t.Errorf("faulty stone@seed7 = (%v, %v), want pinned (0.5, 8421.375)",
			faulty.SuccessRate, faulty.AvgSteps)
	}
}

// TestPlannerVoltageMVSetOnce guards the aggregation bugfix: the summary's
// planner supply is a config property, not "whatever trial finished last".
func TestPlannerVoltageMVSetOnce(t *testing.T) {
	s := RunMany(Config{Task: world.TaskWooden, UniformBER: 0,
		PlannerVoltage: 0.85, Seed: 3}, 5, RunOptions{})
	if s.PlannerVoltageMV != 850 {
		t.Fatalf("PlannerVoltageMV = %d, want 850", s.PlannerVoltageMV)
	}
	for i, r := range s.Results {
		if r.PlannerVoltageMV != 850 {
			t.Fatalf("trial %d PlannerVoltageMV = %d, want 850", i, r.PlannerVoltageMV)
		}
	}
}
