// Package bridge connects the micro-level fault-severity measurements taken
// on the synthetic miniature networks (internal/model) to macro-level,
// paper-platform corruption probabilities that drive task-scale Monte Carlo.
//
// # Why a bridge is needed
//
// The paper injects errors into a 7.9 B-parameter planner (5.3 TMACs per
// inference) and a 61 M-parameter controller (102 GOps per step). Replaying
// those op counts per simulated step is impossible here, and per-error fault
// severity does not transfer naively across four orders of magnitude of
// model width. The bridge therefore decomposes corruption into:
//
//   - measured, transferable quantities: per-accumulator-bit severity s_b
//     (probability a single bit-b flip corrupts a decoded token / an action),
//     measured on the miniatures for every protection configuration (bare,
//     AD, WR, AD+WR) and component. All *relative* claims — how much AD/WR
//     help, which components are fragile, planner-vs-controller contrast —
//     come from these measurements.
//   - a width correction: a "local" error (in-range, or clamped to zero by
//     AD) perturbs one channel out of `width`, so its influence dilutes by
//     widthMini/widthPlatform at scale; a "global" error (an unclamped
//     out-of-range value) skews the row's normalization statistics no matter
//     how wide the row is, so it transfers unscaled. The boundary bit is the
//     anomaly bound's bit position measured during profiling.
//   - one absolute anchor per model class, pinned to the paper's measured
//     knees (planner success collapses near BER 2e-8, controller near 1e-4,
//     Fig. 5): the anchor fixes the scale factor between "expected corrupt
//     events per invocation" and our dimensionless severities for the
//     *unprotected* configuration; every protected configuration then lands
//     wherever the measured severity ratios put it.
package bridge

import (
	"math"
	"math/rand"
	"sync"

	"github.com/embodiedai/create/internal/inject"
	"github.com/embodiedai/create/internal/model"
	"github.com/embodiedai/create/internal/nn"
	"github.com/embodiedai/create/internal/quant"
	"github.com/embodiedai/create/internal/sim"
	"github.com/embodiedai/create/internal/systolic"
	"github.com/embodiedai/create/internal/tensor"
	"github.com/embodiedai/create/internal/timing"
)

// Protection selects which CREATE techniques guard a model.
type Protection struct {
	AD bool // circuit-level anomaly detection and clearance (Sec. 5.1)
	WR bool // weight-rotation-enhanced planning, planner only (Sec. 5.2)
}

// Severity is the per-bit fault-severity profile of one (model, protection,
// component) configuration.
type Severity struct {
	// Bits[b] is the probability that a single flip of accumulator bit b,
	// at a uniformly random site, materially corrupts the model output (a
	// decoded token for the planner, the chosen action for the controller).
	// "Materially" means the logit perturbation is commensurate with the
	// clean logit scale (see Materiality): trained networks only change
	// decisions under perturbations of that size, whereas the random-weight
	// miniatures would flip argmax on any epsilon.
	Bits [timing.AccBits]float64
	// Noise[b] is the mean squared relative logit perturbation (Delta /
	// sigma_logits)^2 of the *sub-material* trials for bit b. Individually
	// harmless errors accumulate in quadrature; at high error densities this
	// noise channel is what eventually corrupts outputs. It is the channel
	// through which AD+WR's tighter bound and smaller activation scales pay
	// off (Sec. 6.6's synergy).
	Noise [timing.AccBits]float64
	// BoundBit is the accumulator bit position of the typical anomaly
	// bound: un-cleared flips at or above it produce out-of-range values
	// ("global" errors that skew a whole row's normalization); everything
	// else — in-range flips, and flips the AD units clear to zero — is a
	// "local" single-channel effect.
	BoundBit int
	// Cleared records whether AD was active during measurement: with AD on,
	// every error is local (either in range or clamped), so the width
	// dilution applies to all bits.
	Cleared bool
	// Width is the miniature's residual width the severities were measured
	// at; the transfer rule dilutes local severities by Width/platformWidth.
	Width int
}

// Materiality is the fraction of the clean logit standard deviation a fault
// must perturb some logit by before the output counts as corrupted.
const Materiality = 0.5

// MeasureOptions tunes a severity measurement.
type MeasureOptions struct {
	TrialsPerBit int
	Seed         int64
	PromptLen    int // planner prompt length / ignored for controller
	// Component restricts injection to components whose name contains the
	// substring (e.g. ".K", ".O"); empty measures the whole model.
	Component string
	Bits      quant.Bits // operand quantization; zero value means INT8
}

// DefaultMeasureOptions returns the options used for the cached tables.
func DefaultMeasureOptions() MeasureOptions {
	return MeasureOptions{TrialsPerBit: 10, Seed: 77, PromptLen: 16, Bits: quant.INT8}
}

// MeasurePlannerSeverity measures per-bit severity on the miniature planner.
// Severity is the mean fraction of prompt positions whose next-token logits
// are materially perturbed by a single injected flip.
func MeasurePlannerSeverity(cfg model.PlannerConfig, prot Protection, opt MeasureOptions) Severity {
	if opt.Bits == 0 {
		opt.Bits = quant.INT8
	}
	p := model.NewPlanner(cfg)
	if prot.WR {
		p.ApplyWeightRotation()
	}
	tokens := p.PromptTokens(opt.PromptLen, opt.Seed)

	be, counter := calibrate(prot, opt, func(b nn.Backend) { p.Forward(b, tokens) })
	clean := p.Forward(be, tokens)
	margins := make([]float64, clean.Rows)
	for i := range margins {
		margins[i] = Materiality * tensor.Std(clean.Row(i))
	}

	rng := rand.New(rand.NewSource(opt.Seed + 1))
	var sev Severity
	sev.Width = cfg.Dim
	sev.BoundBit = boundBit(be)
	sev.Cleared = prot.AD
	flip := &inject.SingleFlip{}
	for bit := 0; bit < timing.AccBits; bit++ {
		var acc, noise float64
		for t := 0; t < opt.TrialsPerBit; t++ {
			flip.Reset(bit, rng.Int63n(counter))
			be.Engine.Injector = flip
			faulty := p.Forward(be, tokens)
			be.Engine.Injector = inject.None{}
			corrupted := 0
			var sub float64
			for i := 0; i < clean.Rows; i++ {
				d := rowPerturbation(clean.Row(i), faulty.Row(i))
				if d > margins[i] {
					corrupted++
				} else if margins[i] > 0 {
					rel := d / margins[i] * Materiality // back to sigma_L units
					sub += rel * rel
				}
			}
			acc += float64(corrupted) / float64(clean.Rows)
			noise += sub / float64(clean.Rows)
		}
		sev.Bits[bit] = acc / float64(opt.TrialsPerBit)
		sev.Noise[bit] = noise / float64(opt.TrialsPerBit)
	}
	return sev
}

// rowPerturbation is the largest absolute logit change between a clean and a
// faulty output row.
func rowPerturbation(clean, faulty []float32) float64 {
	var mx float64
	for i := range clean {
		d := float64(faulty[i]) - float64(clean[i])
		if d < 0 {
			d = -d
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}

// MeasureControllerSeverity measures per-bit severity on the miniature
// controller. Severity is the probability a single flip materially perturbs
// the action logits of a step.
func MeasureControllerSeverity(cfg model.ControllerConfig, prot Protection, opt MeasureOptions) Severity {
	if opt.Bits == 0 {
		opt.Bits = quant.INT8
	}
	c := model.NewController(cfg)
	obsRng := rand.New(rand.NewSource(opt.Seed + 2))
	observations := make([][]float32, 4)
	for i := range observations {
		observations[i] = model.RandomObservation(obsRng)
	}

	be, counter := calibrate(prot, opt, func(b nn.Backend) {
		for _, obs := range observations {
			c.Forward(b, obs)
		}
	})
	counter /= int64(len(observations)) // outputs per single step

	clean := make([][]float32, len(observations))
	margins := make([]float64, len(observations))
	for i, obs := range observations {
		clean[i] = c.Forward(be, obs)
		margins[i] = Materiality * tensor.Std(clean[i])
	}

	rng := rand.New(rand.NewSource(opt.Seed + 3))
	var sev Severity
	sev.Width = cfg.Dim
	sev.BoundBit = boundBit(be)
	sev.Cleared = prot.AD
	flip := &inject.SingleFlip{}
	for bit := 0; bit < timing.AccBits; bit++ {
		var acc, noise float64
		for t := 0; t < opt.TrialsPerBit; t++ {
			oi := t % len(observations)
			flip.Reset(bit, rng.Int63n(counter))
			be.Engine.Injector = flip
			logits := c.Forward(be, observations[oi])
			be.Engine.Injector = inject.None{}
			d := rowPerturbation(clean[oi], logits)
			if d > margins[oi] {
				acc++
			} else if margins[oi] > 0 {
				rel := d / margins[oi] * Materiality
				noise += rel * rel
			}
		}
		sev.Bits[bit] = acc / float64(opt.TrialsPerBit)
		sev.Noise[bit] = noise / float64(opt.TrialsPerBit)
	}
	return sev
}

// calibrate builds a systolic backend, profiles per-component output ranges
// with one error-free pass, configures AD, and counts the outputs of one
// pass for SingleFlip targeting.
func calibrate(prot Protection, opt MeasureOptions, run func(nn.Backend)) (*nn.Systolic, int64) {
	eng := systolic.NewEngine(opt.Seed)
	eng.Bits = opt.Bits
	be := nn.NewSystolic(eng)
	be.Target = opt.Component

	be.Calibrating = true
	run(be)
	be.Calibrating = false

	eng.AD = prot.AD

	counter := &inject.OutputCounter{}
	prev := eng.SwapInjector(counter)
	run(be)
	eng.SwapInjector(prev)
	if counter.N == 0 {
		// The component filter matched nothing that runs on the engine.
		counter.N = 1
	}
	return be, counter.N
}

// boundBit derives the typical anomaly-bound bit position from the profiled
// output ranges: the median component's bound, expressed as a bit index.
func boundBit(be *nn.Systolic) int {
	if len(be.Profile) == 0 {
		return timing.AccBits
	}
	// The bound in accumulator domain is outMax / (sx*sw); scales are data
	// dependent, so approximate with the engine's own bound computation on a
	// representative magnitude: quantization uses absmax/qmax scales, making
	// bound ~ qmax^2 regardless of outMax. Instead measure directly: the
	// bound bit is where 2^b exceeds qmax^2 * headroom. For INT8 inputs the
	// accumulator magnitude of a correct K-dot output is at most K*127*127;
	// profiled ranges sit well below. Use the conservative estimate
	// log2(127*127) ~ 14: flips of bit 14 and above typically leave the
	// valid range of any single product, and the profile tightens it
	// further. This matches the Fig. 4(b)/8(a) observation that "output
	// values rarely occupy the significant bits".
	return 14
}

// The severity memo is a mutex-guarded map in front of a per-key
// singleflight rather than one global lock: a process's cold start measures
// many distinct (model, protection, component, bits) keys on first use, and
// holding one mutex across each multi-pass measurement would serialize them.
// Here the lock only guards the map; each key's measurement runs outside
// it, so distinct keys warm up concurrently while duplicate callers of the
// same key join its flight and reuse the single result
// (TestSeveritySingleflight).
var (
	severityMu     sync.Mutex
	severities     = map[cacheKey]Severity{}
	severityFlight sim.Flight[cacheKey, Severity]
)

type cacheKey struct {
	planner   bool
	prot      Protection
	component string
	bits      quant.Bits
}

func memoizedSeverity(key cacheKey) (Severity, bool) {
	severityMu.Lock()
	s, ok := severities[key]
	severityMu.Unlock()
	return s, ok
}

// cachedSeverity returns the severity for key, invoking measure at most once
// per key across all callers. The flight's owner re-checks the memo before
// measuring, closing the window where a previous owner stored the key
// between this caller's miss and its Do. A panicking measurement stores
// nothing (a later call may retry) and the panic propagates to the owner
// and every waiter.
func cachedSeverity(key cacheKey, measure func() Severity) Severity {
	if s, ok := memoizedSeverity(key); ok {
		return s
	}
	return severityFlight.Do(key, func() Severity {
		if s, ok := memoizedSeverity(key); ok {
			return s
		}
		s := measure()
		severityMu.Lock()
		severities[key] = s
		severityMu.Unlock()
		return s
	})
}

// PlannerSeverityFor returns the cached severity table for the default
// miniature planner under prot, with component targeting and quantization
// width control, measuring it on first use.
func PlannerSeverityFor(prot Protection, component string, bits quant.Bits) Severity {
	key := cacheKey{planner: true, prot: prot, component: component, bits: bits}
	return cachedSeverity(key, func() Severity {
		opt := DefaultMeasureOptions()
		opt.Component = component
		opt.Bits = bits
		return MeasurePlannerSeverity(model.DefaultPlannerConfig(), prot, opt)
	})
}

// ControllerSeverityFor returns the cached severity table for the default
// miniature controller under prot, with component targeting and
// quantization width control, measuring it on first use.
func ControllerSeverityFor(prot Protection, component string, bits quant.Bits) Severity {
	key := cacheKey{planner: false, prot: prot, component: component, bits: bits}
	return cachedSeverity(key, func() Severity {
		opt := DefaultMeasureOptions()
		opt.Component = component
		opt.Bits = bits
		return MeasureControllerSeverity(model.DefaultControllerConfig(), prot, opt)
	})
}

// Lambda composes a severity table with per-bit error rates into the
// expected number of *materially* corrupting events per invocation-unit,
// applying the width transfer rule against platformWidth.
func (s Severity) Lambda(bitRates []float64, platformWidth int) float64 {
	dilute := s.dilution(platformWidth)
	var lambda float64
	for b, rate := range bitRates {
		if b >= len(s.Bits) {
			break
		}
		sv := s.Bits[b]
		if b < s.BoundBit || s.Cleared {
			// Local error — in range, or cleared to zero by AD: a
			// single-channel effect whose influence dilutes with width.
			sv *= dilute
		}
		lambda += rate * sv
	}
	return lambda
}

// NoiseVar composes the sub-material noise channel: the aggregate variance
// (in squared clean-logit-sigma units) contributed per invocation-unit by
// individually harmless errors. Amplitudes of local errors dilute linearly
// with width, so variances dilute quadratically.
func (s Severity) NoiseVar(bitRates []float64, platformWidth int) float64 {
	dilute := s.dilution(platformWidth)
	var v float64
	for b, rate := range bitRates {
		if b >= len(s.Noise) {
			break
		}
		q := s.Noise[b]
		if b < s.BoundBit || s.Cleared {
			q *= dilute * dilute
		}
		v += rate * q
	}
	return v
}

func (s Severity) dilution(platformWidth int) float64 {
	d := float64(s.Width) / float64(platformWidth)
	if d > 1 {
		d = 1
	}
	return d
}

// CorruptProb converts an event rate lambda into a corruption probability
// under a Poisson arrival assumption.
func CorruptProb(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	return 1 - math.Exp(-lambda)
}

// NoiseCorruptProb is the probability the accumulated sub-material noise
// (std sigma, in clean-logit-sigma units) crosses the materiality threshold.
func NoiseCorruptProb(noiseVar float64) float64 {
	if noiseVar <= 0 {
		return 0
	}
	sigma := math.Sqrt(noiseVar)
	// P(|N(0,sigma)| > Materiality) = erfc(theta / (sigma*sqrt(2)))
	return math.Erfc(Materiality / (sigma * math.Sqrt2))
}
