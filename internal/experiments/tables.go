package experiments

import (
	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/quant"
	"github.com/embodiedai/create/internal/stats"
	"github.com/embodiedai/create/internal/world"
)

// ---------------------------------------------------------------------------
// Table 5: statistical significance of repetitions.

// Table5Row is one repetition-count sample.
type Table5Row struct {
	Repetitions int
	SuccessRate float64
	// CI95 is the 95 % confidence half-width at this repetition count.
	CI95 float64
}

// Table5Repetitions measures the wooden task's success rate (controller BER
// 1e-7, as in the paper's Table 5) across growing repetition counts: by 100
// repetitions the estimate has converged within the paper's 3-5 % CI band.
func Table5Repetitions(e *Env, opt Options) []Table5Row {
	counts := []int{20, 40, 60, 80, 100, 140, 200}
	var out []Table5Row
	for _, n := range counts {
		cfg := agent.Config{
			Task:       world.TaskWooden,
			Controller: e.Controller,
			UniformBER: 1e-7,
			Seed:       opt.Seed,
		}
		s := agent.RunMany(cfg, n, agent.RunOptions{})
		out = append(out, Table5Row{
			Repetitions: n,
			SuccessRate: s.SuccessRate,
			CI95:        stats.BinomialCI(s.SuccessRate, n),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 6: INT8 vs INT4 under AD+WR.

// Table6Row is one (quantization, BER) success sample on stone.
type Table6Row struct {
	Bits        quant.Bits
	BER         float64
	SuccessRate float64
}

// Table6Quantization evaluates AD+WR on the stone task under INT8 and INT4
// operand quantization across the high-BER band: the protected success
// rates are statistically indistinguishable (Sec. 6.9), because AD+WR
// compresses the undetected error range below the anomaly threshold in both
// formats. INT4's severity weighting comes from miniature measurements at
// INT4 (which only matter under non-uniform rates); the AD+WR knee applies
// to both.
func Table6Quantization(e *Env, opt Options) []Table6Row {
	var out []Table6Row
	for _, bits := range table6Bits {
		for _, j := range table6Jobs(e, bits) {
			// fm.ID() separates the INT4 variant; the INT8 rows share the
			// Fig. 13 ablation's points where the BER grids overlap.
			s := e.runJob(j, opt)
			out = append(out, Table6Row{Bits: bits, BER: j.cfg.UniformBER, SuccessRate: s.SuccessRate})
		}
	}
	return out
}

var (
	table6Bits = []quant.Bits{quant.INT8, quant.INT4}
	table6BERs = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
)

// table6Jobs builds one quantization format's BER grid, shared by the
// runner and the fingerprint enumerator.
func table6Jobs(e *Env, bits quant.Bits) []gridJob {
	fm := e.Planner
	if bits == quant.INT4 {
		fm = platformPlannerWithBits(bits)
	}
	jobs := make([]gridJob, 0, len(table6BERs))
	for _, ber := range table6BERs {
		cfg := agent.Config{
			Planner:     fm,
			PlannerProt: bridge.Protection{AD: true, WR: true},
			UniformBER:  ber,
		}
		jobs = append(jobs, gridJob{task: world.TaskStone, cfg: cfg})
	}
	return jobs
}

func platformPlannerWithBits(bits quant.Bits) *bridge.FaultModel {
	fm := bridge.NewPlannerFaultModel(bridge.JARVIS1PlannerShape)
	fm.SetQuantBits(bits)
	return fm
}
