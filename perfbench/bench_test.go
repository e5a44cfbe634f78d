package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/quant"
)

func testConfig(t *testing.T, tamper bool) *config {
	t.Helper()
	pinned, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return &config{workload: "characterize", seed: 1, seconds: 1, tamper: tamper, pinned: pinned}
}

// outcomeFor checks one op per pinned characterize triple of the first
// pool seed, with the digest the program rendered at recording time.
func outcomeFor(t *testing.T, cfg *config) *outcome {
	t.Helper()
	o := &outcome{wall: 1, setup: []float64{0.01}, layers: map[string]float64{}}
	for _, exp := range charExps {
		p := op{Exp: exp, Seed: charSeeds[0], MS: 5, Digest: cfg.pinned[digestKey(exp, unitTrials, charSeeds[0])]}
		if p.Digest == "" {
			t.Fatalf("no pinned digest for %s", exp)
		}
		check(&p, cfg.expect(p.Exp, unitTrials, p.Seed))
		o.ops = append(o.ops, p)
	}
	return o
}

func TestPinnedDigestsPass(t *testing.T) {
	cfg := testConfig(t, false)
	res := outcomeFor(t, cfg).report(io.Discard, cfg)
	if !res.Correct || res.Failed != 0 || res.Attempted != len(charExps) {
		t.Fatalf("untampered run: %+v", res)
	}
}

func TestTamperedDigestFailsRun(t *testing.T) {
	cfg := testConfig(t, true)
	res := outcomeFor(t, cfg).report(io.Discard, cfg)
	if res.Correct || res.Failed != len(charExps) {
		t.Fatalf("tampered digests must fail every op and the run: %+v", res)
	}
}

func TestFailingOpFailsRun(t *testing.T) {
	cfg := testConfig(t, false)
	o := outcomeFor(t, cfg)
	o.ops[1].Err = "rejected with 429"
	res := o.report(io.Discard, cfg)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("a failed op must count and fail the run: %+v", res)
	}
	// Failed ops are not completed work: the rate counts only the others.
	if got, want := res.Metrics["ops_per_s"].Value, float64(len(charExps)-1); got != want {
		t.Fatalf("ops_per_s = %v, want %v", got, want)
	}
}

func TestBrokenFixtureFailsRun(t *testing.T) {
	cfg := testConfig(t, false)
	o := outcomeFor(t, cfg)
	o.broken = []string{"fixture fig16: digest mismatch"}
	if res := o.report(io.Discard, cfg); res.Correct {
		t.Fatalf("a broken fixture must fail the run: %+v", res)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// in step with the declarations in the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer()}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(c.declared), len(c.printed))
		}
		for i, m := range c.printed {
			if c.declared[i].Name != m.name || c.declared[i].Unit != m.unit {
				t.Errorf("metric %d: declared %+v, printed %s %s", i, c.declared[i], m.name, m.unit)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{30, 10, 20}
	if got := percentile(xs, 0.5); got != 20 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(xs, 0.9); got != 30 {
		t.Fatalf("p90 = %v", got)
	}
	if got := percentile(append(xs, 40), 0.5); got != 20 {
		t.Fatalf("p50 of four = %v", got)
	}
}

// TestProfileAttribution decodes a real CPU profile and charges the
// calibration loop to the quant package.
func TestProfileAttribution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 1<<16)
	for i := range data {
		data[i] = float32(i%97) - 48
	}
	var sink quant.Params
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		sink = quant.Calibrate(data, quant.INT8)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_ = sink
	by := map[string]float64{}
	if err := attributeProfile(path, by); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range by {
		total += s
	}
	if by["quant"] < 0.5*total || total < 0.1 {
		t.Fatalf("quant %.3fs of %.3fs total: %v", by["quant"], total, by)
	}
}
