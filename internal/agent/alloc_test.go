package agent

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// steadyConfig is the allocation test's workload: a voltage-scaled,
// fault-injected iron episode — the configuration class that exercises every
// hot-path component at once (expert decisions, shared softmax, VS predictor
// draws, corruption lookups, histogram updates, world stepping). The replan
// limit is effectively disabled so the measured window cannot cross a
// planner invocation (which allocates a fresh plan by design), and iron's
// long horizon keeps the episode mid-flight for the whole window.
func steadyConfig() Config {
	_, cm := testModels()
	return Config{
		Task:        world.TaskIron,
		Controller:  cm,
		ControlProt: bridge.Protection{AD: true},
		UniformBER:  VoltageMode,
		Timing:      timing.Default(),
		VSPolicy:    policy.Default.Func(),
		VSLevels:    policy.Default.VoltageLevels(),
		ReplanLimit: 1 << 30,
		Seed:        2026,
	}
}

// TestStepLoopZeroAllocs locks the steady-state episode step loop at zero
// allocations per step. It warms an episode past its lazy initialization
// (scratch buffers, histogram buckets, corruption table hits), then measures
// a mid-episode window. Any regression — a fresh logit slice, a second
// softmax, a map touch in the histogram — fails here before it can slow
// every sweep above.
func TestStepLoopZeroAllocs(t *testing.T) {
	cfg := steadyConfig().withDefaults()
	table := newCorruptTable(cfg)
	sc := newRunScratch()
	ep := startEpisode(cfg, table, sc)
	for i := 0; i < 500; i++ {
		if ep.step() {
			t.Fatal("episode finished during warmup; pick a longer task")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		ep.step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state step loop allocates %.1f objects/step, want 0", allocs)
	}
}

// TestRunScratchReuseByteIdentical runs the same trial twice on one scratch
// (dirty from an unrelated episode in between) and demands identical
// results — the reuse contract every buffer in runScratch must honour.
func TestRunScratchReuseByteIdentical(t *testing.T) {
	cfg := steadyConfig().withDefaults()
	cfg.ReplanLimit = DefaultReplanLimit
	cfg.StepLimit = 1500
	table := newCorruptTable(cfg)
	fresh := runEpisode(cfg, table, newRunScratch())

	sc := newRunScratch()
	dirty := cfg
	dirty.Task = world.TaskWool
	dirty.Seed = 99
	runEpisode(dirty, newCorruptTable(dirty), sc)
	reused := runEpisode(cfg, table, sc)
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("scratch reuse diverged\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// summaryHash canonically hashes a Summary: JSON marshalling sorts map keys
// and renders floats at full round-trip precision, so the hash pins every
// aggregate, per-trial result, histogram bucket, and trace byte.
func summaryHash(s Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenSummaryHashes pins RunMany's exact output for every determinism
// config, captured on the pre-scratch-buffer implementation (PR 5's seed).
// The zero-allocation refactor — shared softmax, reused worlds/experts,
// precomputed corruption tables, indexed voltage histograms — must
// reproduce these byte-for-byte; a mismatch means an optimization changed
// RNG stream consumption or float accumulation order and every published
// figure silently drifted. See PERFORMANCE.md for the bit-identity rules.
var goldenSummaryHashes = map[string]string{
	"clean":              "8955a54572eb25859ac13070a0d9db33a7edc0f070c8abe9768e36174aac9fd0",
	"controller-uniform": "ae209058c0e6ad876e1d04ec51d0f12330e8a2be5cc70618cab68a0cfe3355ca",
	"planner-uniform":    "dbf0812b4122a48a24267579b30bfc1cce084c18cc70d8e2a373d11452dba6f9",
	"voltage-scaled":     "e12860a2a28f64d00848fda9950d0b6b477e07c53dd9b37925f5d098e8f9a731",
}

func TestSummaryGoldenHashes(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		got := summaryHash(RunMany(cfg, 8, RunOptions{Workers: 1}))
		if want := goldenSummaryHashes[name]; got != want {
			t.Errorf("%s: summary hash %s, want golden %s — episode bytes changed", name, got, want)
		}
	}
}

// TestVSLevelsHintDoesNotChangeOutcomes: VSLevels only moves where q is
// computed (shared table vs per-episode fallback), never what it is.
func TestVSLevelsHintDoesNotChangeOutcomes(t *testing.T) {
	_, cm := testModels()
	base := Config{
		Task: world.TaskLog, Controller: cm, UniformBER: VoltageMode,
		Timing: timing.Default(), Seed: 19,
		VSPolicy: func(h float64) float64 {
			if h > 2 {
				return 0.70
			}
			return 0.85
		},
	}
	hinted := base
	hinted.VSLevels = []float64{0.70, 0.85}
	want := RunMany(base, 6, RunOptions{Workers: 1})
	got := RunMany(hinted, 6, RunOptions{Workers: 1})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("VSLevels hint changed episode outcomes")
	}
	// Declarations colliding on one mv key coexist in the table (hits
	// require exact float64 equality) — same outcomes.
	collided := hinted
	collided.VSLevels = []float64{0.70, 0.85, 0.85000000000000064}
	if got := RunMany(collided, 6, RunOptions{Workers: 1}); !reflect.DeepEqual(want, got) {
		t.Fatal("colliding VSLevels declaration changed episode outcomes")
	}

	// The policy returning an *undeclared* voltage whose mv key collides
	// with a declared one must compute q at the returned float, not serve
	// the declared level's tabulated q: first-seen-wins at the actual
	// voltage, with or without the hint.
	offGrid := base
	offGrid.VSPolicy = func(h float64) float64 {
		if h > 2 {
			return 0.70
		}
		return 0.85000000000000064 // mv 850, distinct float from 0.85
	}
	wantOff := RunMany(offGrid, 6, RunOptions{Workers: 1})
	hintedOff := offGrid
	hintedOff.VSLevels = []float64{0.70, 0.85}
	if got := RunMany(hintedOff, 6, RunOptions{Workers: 1}); !reflect.DeepEqual(wantOff, got) {
		t.Fatal("mv-colliding undeclared policy voltage resolved through the table")
	}
}

// TestDiscardResultsKeepsAggregates: the memory-saving option must change
// nothing but the retained slice.
func TestDiscardResultsKeepsAggregates(t *testing.T) {
	cfg := Config{Task: world.TaskWooden, UniformBER: 0, Seed: 42}
	full := RunMany(cfg, 6, RunOptions{Workers: 1})
	lean := RunMany(cfg, 6, RunOptions{Workers: 1, DiscardResults: true})
	if lean.Results != nil {
		t.Fatal("DiscardResults retained the per-trial slice")
	}
	full.Results = nil
	if !reflect.DeepEqual(full, lean) {
		t.Fatalf("aggregates diverged\nfull: %+v\nlean: %+v", full, lean)
	}
}

// BenchmarkStepLoop measures the steady-state per-step cost of the episode
// engine — the figure-of-merit the zero-allocation refactor targets. When
// b.N outlasts the episode (it completes around step 940), the episode is
// restarted off the clock: stepping a finished episode is a trivial
// success short-circuit and would understate the real per-step cost.
func BenchmarkStepLoop(b *testing.B) {
	cfg := steadyConfig().withDefaults()
	table := newCorruptTable(cfg)
	sc := newRunScratch()
	warm := func() *episode {
		ep := startEpisode(cfg, table, sc)
		for i := 0; i < 500; i++ {
			ep.step()
		}
		return ep
	}
	ep := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ep.step() {
			b.StopTimer()
			ep = warm()
			b.StartTimer()
		}
	}
}

// BenchmarkEpisode measures a whole episode including per-trial reset on a
// reused scratch (the RunMany inner unit).
func BenchmarkEpisode(b *testing.B) {
	cfg := steadyConfig().withDefaults()
	cfg.StepLimit = 2000
	table := newCorruptTable(cfg)
	sc := newRunScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		runEpisode(cfg, table, sc)
	}
}
