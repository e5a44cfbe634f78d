// Command perfbench is the repository benchmark. It drives one of four
// closed-loop workloads through the public entry points the CLIs and
// daemons use, checks every rendered output against pinned digests, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ones)
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 10 --trace 0
//
// Workloads (perfbench/layers.json records why each was chosen, which
// layers it loads and which it bypasses):
//
//   - sweep: fresh processes regenerate fig16 and fig13 through
//     dispatch.Local against a pre-populated disk cache that every grid
//     point misses.
//   - characterize: regenerates fig5, fig4 and fig9 in-process.
//   - serve: two clients submit warm jobs (plus a fixed minority of cold
//     fig15 jobs) to an in-process service.Server over loopback HTTP.
//   - fleet: one client runs dispatch.Coordinator over two loopback
//     service workers whose stores are warm, into an empty coordinator
//     directory each time.
//
// Inputs are generated from --seed only; the program under test receives
// the generated experiments, seeds and tenants.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/embodiedai/create/internal/obs/trace"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tamper   bool
	runDir   string
	pinned   digests
	rng      *rand.Rand
	rec      *trace.Recorder // traced runs only
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: sweep, characterize, serve or fleet")
	seed := flag.Int64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced, profiled run")
	tamper := flag.Bool("tamper", false, "corrupt every expected digest (self-check: the run must fail)")
	child := flag.String("child", "", "internal: run as a child process (sweep-op, fixture, setup)")
	dir := flag.String("dir", "", "internal: child cache directory")
	childSeed := flag.Int64("child-seed", 0, "internal: child input seed")
	profile := flag.String("profile", "", "internal: child CPU profile path")
	record := flag.Bool("record", false, "recompute every pinned digest and rewrite digests.json")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *workload, *dir, *childSeed, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 2
		}
		return 0
	}
	if *record {
		if err := recordDigests(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|characterize|serve|fleet --seed N --seconds S --trace 0|1")
		return 2
	}
	pinned, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// Each run keeps its scratch dir (a few MB to a few tens of MB) under
	// .bench_build; rm -rf .bench_build reclaims it. Deleting it on exit
	// made the next run's file writes several times slower on ext4 with
	// online discard, so a run's clean-up would land in another's numbers.
	runDir, err := os.MkdirTemp(".bench_build", "run-")
	if err == nil {
		runDir, err = filepath.Abs(runDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	cfg := &config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		tamper: *tamper, runDir: runDir, pinned: pinned,
		rng: rand.New(rand.NewPCG(uint64(*seed), 0x9e3779b97f4a7c15)),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if cfg.trace {
		cfg.rec = trace.NewRecorder(trace.DeriveTraceID(fmt.Sprintf("perfbench|%s|%d", *workload, *seed), 0), "perfbench")
		cfg.rec.SetMaxSpans(1 << 20)
	}
	out, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := out.report(os.Stdout, cfg)
	if cfg.trace {
		path, err := cfg.writeTrace(out.ops)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		fmt.Println("trace", path)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// record adds spans the service or coordinator emitted to a traced run's
// timeline.
func (c *config) record(spans ...trace.Span) {
	if c.rec != nil {
		c.rec.Import(spans)
	}
}

// writeTrace adds one span per op to the run's timeline and writes it in
// the Chrome trace-event format create-coordinator -trace-out writes
// (Perfetto-loadable), beside the build under .bench_build.
func (c *config) writeTrace(ops []op) (string, error) {
	for _, p := range ops {
		attrs := map[string]string{"node": "perfbench", "seed": strconv.FormatInt(p.Seed, 10)}
		if p.Err != "" {
			attrs["error"] = p.Err
		}
		c.rec.Record(trace.Span{
			TraceID: c.rec.TraceID(), SpanID: c.rec.NewSpanID(), Name: c.workload + " " + p.Exp,
			Start: p.At, End: p.At.Add(time.Duration(p.MS * 1e6)), Attrs: attrs,
		})
	}
	path := filepath.Join(filepath.Dir(c.runDir), fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteChrome(f, c.rec.Spans()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"sweep":        runSweep,
	"characterize": runCharacterize,
	"serve":        runServe,
	"fleet":        runFleet,
}
