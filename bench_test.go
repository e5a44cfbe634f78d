// Benchmarks regenerating the paper's tables and figures (deliverable (d)):
// one testing.B target per evaluation artifact, each running the
// corresponding experiments harness at a reduced trial count. Run them all
// with
//
//	go test -bench=. -benchmem
//
// Regenerate the figures themselves at full trial counts with
// cmd/create-bench (-trials 100); PERFORMANCE.md records how to profile
// and the measured numbers.
package create

import (
	"testing"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/platforms"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

func benchOptions() experiments.Options { return experiments.Options{Trials: 12, Seed: 2026} }

var benchEnv = experiments.NewEnv()

// ---------------------------------------------------------------------------
// Steady-state episode benchmarks: the per-trial unit every figure above
// multiplies. Each trial runs on the engine's reused per-worker scratch, so
// allocs/op here is the per-episode residual (plan construction and the
// Result histogram) — the per-step loop itself is allocation-free, locked
// by internal/agent's TestStepLoopZeroAllocs and measured in isolation by
// its BenchmarkStepLoop.

// steadyEpisodeConfig is the hot-path-complete workload: voltage-scaled
// controller under the hardware error model on a long-horizon task.
func steadyEpisodeConfig() agent.Config {
	return agent.Config{
		Task:        world.TaskIron,
		Controller:  platforms.JARVIS1Controller.FaultModel(),
		ControlProt: bridge.Protection{AD: true},
		UniformBER:  agent.VoltageMode,
		Timing:      timing.Default(),
		VSPolicy:    policy.Default.Func(),
		VSLevels:    policy.Default.VoltageLevels(),
		StepLimit:   1200,
		Seed:        2026,
	}
}

// BenchmarkEpisodes_VoltageScaled measures b.N voltage-scaled episodes
// through RunMany — scratch reuse, shared corruption table, discarded
// per-trial results: the sweep-grid inner loop exactly as production runs
// it. One untimed episode first absorbs the process-wide cold start (the
// bridge's lazily measured severity tables), which would otherwise dominate
// single-iteration (-benchtime 1x) baselines.
func BenchmarkEpisodes_VoltageScaled(b *testing.B) {
	cfg := steadyEpisodeConfig()
	agent.RunMany(cfg, 1, agent.RunOptions{Workers: 1, DiscardResults: true})
	b.ReportAllocs()
	b.ResetTimer()
	agent.RunMany(cfg, b.N, agent.RunOptions{Workers: 1, DiscardResults: true})
}

// BenchmarkEpisodes_CleanStone is the fault-free counterpart: no corruption
// draws, no VS predictor — isolates the expert/softmax/world step cost.
func BenchmarkEpisodes_CleanStone(b *testing.B) {
	cfg := agent.Config{Task: world.TaskStone, UniformBER: 0, StepLimit: 1200, Seed: 2026}
	agent.RunMany(cfg, 1, agent.RunOptions{Workers: 1, DiscardResults: true})
	b.ReportAllocs()
	b.ResetTimer()
	agent.RunMany(cfg, b.N, agent.RunOptions{Workers: 1, DiscardResults: true})
}

// BenchmarkFig01_VoltageBER regenerates the voltage -> BER curve (Fig. 1(b)).
func BenchmarkFig01_VoltageBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig1b(benchEnv); len(pts) == 0 {
			b.Fatal("empty curve")
		}
	}
}

// BenchmarkFig01_EnergyPerTask regenerates the energy-vs-voltage inversion
// (Fig. 1(d)) via the unprotected stone sweep.
func BenchmarkFig01_EnergyPerTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig20Baselines(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig04_TimingModel regenerates the per-bit error surface and the
// error-magnitude histogram (Fig. 4).
func BenchmarkFig04_TimingModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4a(benchEnv)
		experiments.Fig4b(benchEnv, benchOptions())
	}
}

// BenchmarkFig05_PlannerController regenerates the planner/controller
// resilience sweeps (Fig. 5(a)-(d)).
func BenchmarkFig05_PlannerController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5Planner(benchEnv, benchOptions())
		experiments.Fig5Controller(benchEnv, benchOptions())
	}
}

// BenchmarkFig05_Components regenerates the per-component severity study
// (Fig. 5(e)-(h)) on the miniature networks.
func BenchmarkFig05_Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5Components(experiments.Options{Trials: 4, Seed: 2026})
	}
}

// BenchmarkFig05_Activations regenerates the activation/normalization
// profiles (Fig. 5(i)-(l)).
func BenchmarkFig05_Activations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5Activations(benchOptions())
	}
}

// BenchmarkFig06_SubtaskDiversity regenerates the subtask-resilience study
// (Fig. 6).
func BenchmarkFig06_SubtaskDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6Subtasks(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig07_StageDynamics regenerates the stage-specific resilience
// study (Fig. 7).
func BenchmarkFig07_StageDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7Stages(benchEnv, benchOptions())
		experiments.Fig7PhaseInjection(benchEnv, benchOptions(), 0.5)
	}
}

// BenchmarkFig08_GEMMProfile regenerates the runtime GEMM output
// distribution (Fig. 8(a)).
func BenchmarkFig08_GEMMProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8GEMMProfile(benchOptions())
	}
}

// BenchmarkFig09_WeightRotation regenerates the pre/post-rotation activation
// comparison (Fig. 9(b)).
func BenchmarkFig09_WeightRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9Rotation(benchOptions())
	}
}

// BenchmarkFig10_EntropyCurve regenerates the per-step entropy trace
// (Fig. 10).
func BenchmarkFig10_EntropyCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10EntropyCurve(benchOptions(), world.TaskLog)
	}
}

// BenchmarkFig12_Hardware regenerates the block breakdown and LDO waveforms
// (Fig. 12).
func BenchmarkFig12_Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12Breakdown()
		experiments.Fig12Waveforms()
	}
}

// BenchmarkFig13_AD regenerates the anomaly detection evaluation
// (Fig. 13(a)/(b)).
func BenchmarkFig13_AD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13AD(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig13_WR regenerates the weight rotation evaluation (Fig. 13(c)).
func BenchmarkFig13_WR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13WR(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig13_VS regenerates the voltage-scaling frontier
// (Fig. 13(d)/(f)).
func BenchmarkFig13_VS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13VS(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig13_Ablation regenerates the AD+WR ablation (Fig. 13(e)).
func BenchmarkFig13_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13AblationPlanner(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig14_Predictor regenerates the entropy-predictor evaluation
// (Fig. 14) at a small training scale plus the oracle calibration.
func BenchmarkFig14_Predictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig14Predictor(benchOptions(),
			experiments.PredictorScale{TrainFrames: 600, TestFrames: 120, Epochs: 2})
		experiments.OracleR2(benchOptions(), 0.34, 1000)
	}
}

// BenchmarkFig15_UpdateInterval regenerates the voltage-update-interval
// study (Fig. 15).
func BenchmarkFig15_UpdateInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15Interval(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig16_Overall regenerates the overall task evaluation
// (Fig. 16(a)/(b)) with the default all-cores fan-out.
func BenchmarkFig16_Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Trials: 4, Seed: 2026}
		experiments.Fig16Reliability(benchEnv, opt)
		experiments.Fig16Efficiency(benchEnv, opt)
	}
}

// BenchmarkFig16_OverallSerial is the Workers: 1 baseline for the parallel
// engine — compare against BenchmarkFig16_OverallParallel to measure the
// speedup on this host (the outputs are bit-identical by construction).
func BenchmarkFig16_OverallSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Trials: 4, Seed: 2026, Workers: 1}
		experiments.Fig16Reliability(benchEnv, opt)
	}
}

// BenchmarkFig16_OverallParallel fans the same workload out over all cores.
func BenchmarkFig16_OverallParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Trials: 4, Seed: 2026, Workers: 0}
		experiments.Fig16Reliability(benchEnv, opt)
	}
}

// BenchmarkFig17_CrossPlatform regenerates the cross-platform generality
// evaluation (Fig. 17).
func BenchmarkFig17_CrossPlatform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig17CrossPlatform(benchEnv, experiments.Options{Trials: 8, Seed: 2026})
	}
}

// BenchmarkFig18_ChipEnergy regenerates the chip-level energy breakdown
// (Fig. 18).
func BenchmarkFig18_ChipEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig18ChipEnergy(benchEnv.Power, 0.507, 0.393)
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
		experiments.BatteryLifeRange(0.33)
	}
}

// BenchmarkFig19_ErrorModels regenerates the uniform-vs-hardware error-model
// validation (Fig. 19).
func BenchmarkFig19_ErrorModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig19ErrorModels(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig20_Baselines regenerates the prior-art comparison (Fig. 20).
func BenchmarkFig20_Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig20Baselines(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}

// BenchmarkFig21_Policies regenerates the policy set and a search round
// (Fig. 21, Sec. 6.5).
func BenchmarkFig21_Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig21Policies()
		experiments.PolicySearch(benchEnv, experiments.Options{Trials: 4, Seed: 2026},
			policy.Selected[:2], world.TaskWooden)
	}
}

// BenchmarkTable2_LDO regenerates the LDO specification table.
func BenchmarkTable2_LDO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table2LDO(); len(rows) != 8 {
			b.Fatal("wrong table")
		}
	}
}

// BenchmarkTable3_Accelerator regenerates the accelerator performance table.
func BenchmarkTable3_Accelerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3Accelerator()
	}
}

// BenchmarkTable4_Models regenerates the model-zoo table.
func BenchmarkTable4_Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table4Models(); len(rows) != len(platforms.All) {
			b.Fatal("wrong zoo")
		}
	}
}

// BenchmarkTable5_Repetitions regenerates the repetition-convergence table.
func BenchmarkTable5_Repetitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5Repetitions(benchEnv, benchOptions())
	}
}

// BenchmarkTable6_Quantization regenerates the INT8-vs-INT4 table.
func BenchmarkTable6_Quantization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table6Quantization(benchEnv, experiments.Options{Trials: 6, Seed: 2026})
	}
}
