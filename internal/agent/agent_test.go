package agent

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

func flatSeverity() bridge.Severity {
	var s bridge.Severity
	s.BoundBit = 14
	s.Width = 64
	for b := range s.Bits {
		s.Bits[b] = 0.1
	}
	return s
}

func testModels() (*bridge.FaultModel, *bridge.FaultModel) {
	pm := bridge.NewPlannerFaultModel(bridge.JARVIS1PlannerShape)
	cm := bridge.NewControllerFaultModel(bridge.JARVIS1ControllerShape)
	pm.SetSeverityFunc(func(bridge.Protection) bridge.Severity { return flatSeverity() })
	cm.SetSeverityFunc(func(bridge.Protection) bridge.Severity { return flatSeverity() })
	return pm, cm
}

func TestErrorFreeEpisodesSucceed(t *testing.T) {
	for _, task := range world.AllTasks {
		s := RunMany(Config{Task: task, UniformBER: 0, Seed: 42}, 12, RunOptions{})
		if s.SuccessRate < 0.8 {
			t.Errorf("%s: error-free success only %.0f%%", task, s.SuccessRate*100)
		}
		if s.SuccessRate > 0 && s.AvgSteps <= 0 {
			t.Errorf("%s: missing step accounting", task)
		}
	}
}

func TestEpisodeDeterministicPerSeed(t *testing.T) {
	cfg := Config{Task: world.TaskStone, UniformBER: 0, Seed: 9}
	a, b := Run(cfg), Run(cfg)
	if a.Success != b.Success || a.Steps != b.Steps {
		t.Fatal("same seed must reproduce the episode")
	}
}

// TestRunnerMatchesRun: a Runner's seed sweep must reproduce a fresh Run
// with the same seed for every configuration class — characterize's traced
// clean episodes (Fig7Stages), predictor's traced stone-task sweeps
// (OracleR2) and the fault-injected voltage-scaled steady workload — while
// sharing one corruption table and one scratch that an unrelated-seed
// episode has already dirtied.
func TestRunnerMatchesRun(t *testing.T) {
	configs := []Config{
		{Task: world.TaskLog, UniformBER: 0, Trace: true, Seed: 41},
		{Task: world.TaskStone, UniformBER: 0, Trace: true, Seed: 2026},
		steadyConfig(),
	}
	for i, cfg := range configs {
		runner := NewRunner(cfg)
		runner.RunSeed(cfg.Seed + 7)
		for t2 := 0; t2 < 3; t2++ {
			c := cfg
			c.Seed = cfg.Seed + int64(t2)*31
			want := Run(c)
			if got := runner.RunSeed(c.Seed); !reflect.DeepEqual(want, got) {
				t.Fatalf("config %d seed %d: Runner diverged\nwant: %+v\ngot:  %+v", i, c.Seed, want, got)
			}
		}
	}
}

func TestControllerFaultsDegradeMonotonically(t *testing.T) {
	_, cm := testModels()
	prev := 1.1
	for _, ber := range []float64{1e-6, 1e-4, 1e-3} {
		s := RunMany(Config{Task: world.TaskStone, Controller: cm, UniformBER: ber, Seed: 3}, 16, RunOptions{})
		if s.SuccessRate > prev+0.15 {
			t.Fatalf("success should not improve with BER: %v at %v", s.SuccessRate, ber)
		}
		prev = s.SuccessRate
	}
}

func TestPlannerFaultsInflateSteps(t *testing.T) {
	pm, _ := testModels()
	clean := RunMany(Config{Task: world.TaskStone, UniformBER: 0, Seed: 5}, 16, RunOptions{})
	faulty := RunMany(Config{Task: world.TaskStone, Planner: pm, UniformBER: 1e-8, Seed: 5}, 16, RunOptions{})
	if faulty.SuccessRate > 0.2 && faulty.AvgSteps < clean.AvgSteps {
		t.Fatalf("planner faults should inflate steps: %v vs %v", faulty.AvgSteps, clean.AvgSteps)
	}
	if faulty.CorruptedCount() == 0 {
		t.Fatal("no subtasks corrupted at BER 1e-8")
	}
}

func TestADProtectionHelps(t *testing.T) {
	_, cm := testModels()
	ber := 3e-4
	bare := RunMany(Config{Task: world.TaskStone, Controller: cm, UniformBER: ber, Seed: 7}, 16, RunOptions{})
	ad := RunMany(Config{Task: world.TaskStone, Controller: cm,
		ControlProt: bridge.Protection{AD: true}, UniformBER: ber, Seed: 7}, 16, RunOptions{})
	if ad.SuccessRate < bare.SuccessRate {
		t.Fatalf("AD should not hurt: %v vs %v", ad.SuccessRate, bare.SuccessRate)
	}
	if ad.SuccessRate < 0.8 {
		t.Fatalf("AD controller should hold at %v: %v", ber, ad.SuccessRate)
	}
}

func TestStepLimitEnforced(t *testing.T) {
	_, cm := testModels()
	// Hopeless error rate: the episode must stop exactly at the limit.
	r := Run(Config{Task: world.TaskIron, Controller: cm, UniformBER: 0.1, Seed: 11, StepLimit: 500})
	if r.Success {
		t.Fatal("cannot succeed at BER 0.1")
	}
	if r.Steps != 500 {
		t.Fatalf("step limit not enforced: %d", r.Steps)
	}
}

func TestReplanOnStall(t *testing.T) {
	pm, _ := testModels()
	// Heavy planner corruption forces nonsense subtasks and replans.
	r := Run(Config{Task: world.TaskWooden, Planner: pm, UniformBER: 1e-7, Seed: 13})
	if r.PlannerInvocations < 2 && !r.Success {
		t.Fatalf("stalled episode should have replanned: %d invocations", r.PlannerInvocations)
	}
}

func TestVoltageModeUsesTimingModel(t *testing.T) {
	_, cm := testModels()
	tm := timing.Default()
	high := RunMany(Config{Task: world.TaskStone, Controller: cm, UniformBER: VoltageMode,
		Timing: tm, ControllerVoltage: 0.88, Seed: 17}, 12, RunOptions{})
	low := RunMany(Config{Task: world.TaskStone, Controller: cm, UniformBER: VoltageMode,
		Timing: tm, ControllerVoltage: 0.65, Seed: 17}, 12, RunOptions{})
	if low.SuccessRate > high.SuccessRate {
		t.Fatalf("lower voltage should not help: %v vs %v", low.SuccessRate, high.SuccessRate)
	}
	if _, ok := high.StepsAtMV[880]; !ok {
		t.Fatal("voltage histogram missing the 880 mV bucket")
	}
}

func TestVSPolicyTracksEntropy(t *testing.T) {
	_, cm := testModels()
	cfg := Config{
		Task:       world.TaskLog,
		Controller: cm,
		UniformBER: VoltageMode,
		Timing:     timing.Default(),
		VSPolicy: func(h float64) float64 {
			if h > 2 {
				return 0.70
			}
			return 0.85
		},
		VSInterval: 1,
		Trace:      true,
		Seed:       19,
	}
	r := Run(cfg)
	sawLow, sawHigh := false, false
	for i := range r.VoltageTrace {
		if r.VoltageTrace[i] == 0.70 {
			sawLow = true
			if r.EntropyTrace[i] < 1 {
				// Prediction noise can flip borderline steps, but a
				// low-entropy execute step at the low rail should be rare;
				// tolerate only mild noise via the predictor model.
				continue
			}
		}
		if r.VoltageTrace[i] == 0.85 {
			sawHigh = true
		}
	}
	if !sawLow || !sawHigh {
		t.Fatalf("policy never switched rails: low=%v high=%v", sawLow, sawHigh)
	}
	if len(r.StepsAtMV) < 2 {
		t.Fatal("voltage histogram should have both rails")
	}
}

func TestVSIntervalGranularity(t *testing.T) {
	_, cm := testModels()
	base := Config{
		Task:       world.TaskLog,
		Controller: cm,
		UniformBER: VoltageMode,
		Timing:     timing.Default(),
		VSPolicy:   func(h float64) float64 { return 0.70 + 0.01*math.Mod(h, 2) },
		Trace:      true,
		Seed:       23,
	}
	base.VSInterval = 20
	r := Run(base)
	// With interval 20 the voltage may only change every 20 steps.
	for i := 1; i < len(r.VoltageTrace); i++ {
		if i%20 != 0 && r.VoltageTrace[i] != r.VoltageTrace[i-1] {
			t.Fatalf("voltage changed off-interval at step %d", i)
		}
	}
}

func TestNoisyOracleClampsAtZero(t *testing.T) {
	oracle := NoisyOracle(1.0)
	rng := newTestRand()
	for i := 0; i < 100; i++ {
		if oracle(0.05, rng) < 0 {
			t.Fatal("predicted entropy must be non-negative")
		}
	}
}

func TestOverridesTakePriority(t *testing.T) {
	pm, cm := testModels()
	cfg := Config{
		Task:                      world.TaskWooden,
		Planner:                   pm,
		Controller:                cm,
		UniformBER:                0.5, // would be catastrophic...
		PlannerCorruptOverride:    func() float64 { return 0 },
		ControllerCorruptOverride: func(float64) float64 { return 0 },
		Seed:                      29,
	}
	r := Run(cfg)
	if !r.Success {
		t.Fatal("overrides forcing zero corruption should make the episode clean")
	}
	if r.CorruptedActions != 0 || r.CorruptedSubtasks != 0 {
		t.Fatal("override leaked corruption")
	}
}

// CorruptedCount sums subtask corruption across trials for assertions.
func (s Summary) CorruptedCount() int {
	n := 0
	for _, r := range s.Results {
		n += r.CorruptedSubtasks
	}
	return n
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
