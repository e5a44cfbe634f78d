package experiments

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/entropy"
	"github.com/embodiedai/create/internal/stats"
	"github.com/embodiedai/create/internal/world"
)

// ---------------------------------------------------------------------------
// Figure 14: entropy predictor accuracy.

// PredictorResult reports the Fig. 14 reproduction.
type PredictorResult struct {
	TrainFrames, TestFrames int
	Epochs                  int
	FinalTrainMSE           float64
	TestMSE                 float64
	R2                      float64
	ParamCount              int
}

// PredictorScale sizes the Fig. 14 run. The paper trains on >250 k frames
// for 200 epochs; the pure-Go trainer reproduces the accuracy trend at a
// configurable fraction of that budget.
type PredictorScale struct {
	TrainFrames, TestFrames, Epochs int
}

// QuickPredictorScale finishes in roughly a minute (R^2 ~ 0.6).
func QuickPredictorScale() PredictorScale {
	return PredictorScale{TrainFrames: 4000, TestFrames: 400, Epochs: 8}
}

// Fig14Predictor trains and evaluates the Table 9 predictor end to end.
func Fig14Predictor(opt Options, scale PredictorScale) PredictorResult {
	train := entropy.BuildDataset(scale.TrainFrames, opt.Seed)
	test := entropy.BuildDataset(scale.TestFrames, opt.Seed+99991)
	p := entropy.NewPredictor(opt.Seed + 7)
	cfg := entropy.DefaultTrainConfig()
	cfg.Epochs = scale.Epochs
	cfg.Seed = opt.Seed
	losses := entropy.Train(p, train, cfg)
	m := entropy.Evaluate(p, test)
	return PredictorResult{
		TrainFrames:   scale.TrainFrames,
		TestFrames:    scale.TestFrames,
		Epochs:        scale.Epochs,
		FinalTrainMSE: losses[len(losses)-1],
		TestMSE:       m.MSE,
		R2:            m.R2,
		ParamCount:    p.ParamCount(),
	}
}

// predictorFingerprint is the content address of one Fig. 14 training run.
// Every input that determines the trained predictor's metrics is spelled
// into the canonical string: the dataset sizes (train and held-out sets
// are regenerated from opt.Seed and its fixed offset), the full training
// schedule, and the architecture via its parameter count — so an
// architecture change retires stale entries instead of replaying them.
// The "payload|" prefix keeps the identity disjoint from grid points; the
// trailing version tag invalidates entries if the trainer itself changes.
func predictorFingerprint(opt Options, scale PredictorScale, cfg entropy.TrainConfig, params int) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return strings.Join([]string{
		"payload|fig14-predictor/v1",
		"train=" + strconv.Itoa(scale.TrainFrames),
		"test=" + strconv.Itoa(scale.TestFrames),
		"epochs=" + strconv.Itoa(cfg.Epochs),
		"batch=" + strconv.Itoa(cfg.BatchSize),
		"lr=" + f(cfg.LR),
		"params=" + strconv.Itoa(params),
		"seed=" + strconv.FormatInt(opt.Seed, 10),
	}, "|")
}

// Fig14PredictorCached is Fig14Predictor behind the content-addressed
// cache: the training dataset build and the epoch loop — by far the most
// expensive uncached work in the suite — run once per fingerprint and
// replay everywhere else, exactly like a grid point's Summary. With no
// cache attached it is Fig14Predictor.
func (e *Env) Fig14PredictorCached(opt Options, scale PredictorScale) PredictorResult {
	if e == nil || e.Cache == nil {
		return Fig14Predictor(opt, scale)
	}
	cfg := entropy.DefaultTrainConfig()
	cfg.Epochs = scale.Epochs
	cfg.Seed = opt.Seed
	fp := predictorFingerprint(opt, scale, cfg, predictorParamCount())
	var res PredictorResult
	if e.Cache.GetPayload(fp, &res) {
		return res
	}
	res = Fig14Predictor(opt, scale)
	// A Put failure must not fail the figure: the result is still correct,
	// only reuse is lost.
	_ = e.Cache.PutPayload(fp, res)
	return res
}

// predictorParamCount is the predictor architecture's parameter count — a
// pure function of the fixed layer shapes, not the seed — built once so
// cache-hit lookups never allocate a throwaway network.
var predictorParamCount = sync.OnceValue(func() int {
	return entropy.NewPredictor(0).ParamCount()
})

// TrackingPoint is one step of the Fig. 14(b) runtime trace: true entropy,
// prediction, and the resulting policy voltage.
type TrackingPoint struct {
	Step      int
	Entropy   float64
	Predicted float64
	Voltage   float64
}

// Fig14Tracking produces the runtime prediction-tracking trace using the
// calibrated noisy-oracle predictor and Policy C (Sec. 6.5's Fig. 14(b)).
func Fig14Tracking(opt Options, steps int, vs func(float64) float64) []TrackingPoint {
	cfg := agent.Config{
		Task:       world.TaskLog,
		UniformBER: 0,
		Trace:      true,
		Seed:       opt.Seed,
		VSPolicy:   vs,
	}
	r := agent.Run(cfg)
	n := len(r.EntropyTrace)
	if steps > n {
		steps = n
	}
	out := make([]TrackingPoint, steps)
	for i := 0; i < steps; i++ {
		out[i] = TrackingPoint{
			Step:      i,
			Entropy:   r.EntropyTrace[i],
			Predicted: r.PredictedTrace[i],
			Voltage:   r.VoltageTrace[i],
		}
	}
	return out
}

// OracleR2 measures the R^2 of the calibrated noisy-oracle predictor used
// by task-scale simulations, confirming it matches the trained predictor's
// accuracy class.
func OracleR2(opt Options, sigma float64, n int) float64 {
	rng := rand.New(rand.NewSource(opt.Seed))
	oracle := agent.NoisyOracle(sigma)
	truths := make([]float64, 0, n)
	preds := make([]float64, 0, n)
	cfg := agent.Config{Task: world.TaskStone, UniformBER: 0, Trace: true, Seed: opt.Seed}
	// The sweep varies only the seed, so one Runner amortizes config
	// resolution, corruption-table composition, and episode scratch.
	runner := agent.NewRunner(cfg)
	seed := opt.Seed
	for len(truths) < n {
		seed += 13
		r := runner.RunSeed(seed)
		for _, h := range r.EntropyTrace {
			truths = append(truths, h)
			preds = append(preds, oracle(h, rng))
			if len(truths) == n {
				break
			}
		}
	}
	return stats.R2(preds, truths)
}
