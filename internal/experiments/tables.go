package experiments

import (
	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
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
	return sweep(e, opt, table6Rows(e))
}

// Table6Points covers both quantization formats across the high-BER band.
func Table6Points(e *Env, opt Options) []cache.Point {
	return points(opt, table6Rows(e))
}

// table6Rows is the (format x BER) grid, one point per row. fm.ID()
// separates the INT4 variant; the INT8 rows share the Fig. 13 ablation's
// points where the BER grids overlap.
func table6Rows(e *Env) []row[Table6Row] {
	var rows []row[Table6Row]
	for _, bits := range []quant.Bits{quant.INT8, quant.INT4} {
		fm := e.Planner
		if bits == quant.INT4 {
			fm = platformPlannerWithBits(bits)
		}
		for _, ber := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
			rows = append(rows, static(1, func(_ int, opt Options) job {
				cfg := agent.Config{
					Planner:     fm,
					PlannerProt: bridge.Protection{AD: true, WR: true},
					UniformBER:  ber,
				}
				return taskJob(world.TaskStone, cfg, opt, "", "")
			}, func(_ int, s agent.Summary) Table6Row {
				return Table6Row{Bits: bits, BER: ber, SuccessRate: s.SuccessRate}
			}))
		}
	}
	return rows
}

func platformPlannerWithBits(bits quant.Bits) *bridge.FaultModel {
	fm := bridge.NewPlannerFaultModel(bridge.JARVIS1PlannerShape)
	fm.SetQuantBits(bits)
	return fm
}
