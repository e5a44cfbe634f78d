package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/quant"
	"github.com/embodiedai/create/internal/registry"
	"github.com/embodiedai/create/internal/service"
)

// setupSamples is how many fresh processes time the set-up per run; the
// reported setup_s is their median.
const setupSamples = 15

// childResult is a child process's report on its last output line. Its
// CPU time reaches the parent through RUSAGE_CHILDREN.
type childResult struct {
	Ops    []op               `json:"ops"`
	Layers map[string]float64 `json:"layers"`
	Alloc  float64            `json:"alloc"`
	RSSMB  float64            `json:"rss_mb"`
}

// spawn runs this binary as a child with args. It returns the seconds from
// start until the child printed its "ready" line (-1 if it never did) and
// decodes the child's last output line into out.
func spawn(ctx context.Context, out any, args ...string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	ready := -1.0
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if ready < 0 && sc.Text() == "ready" {
			ready = time.Since(start).Seconds()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := cmd.Wait(); err != nil {
		return ready, fmt.Errorf("child %v: %w", args, err)
	}
	if out != nil {
		if err := json.Unmarshal(last, out); err != nil {
			return ready, fmt.Errorf("child %v output: %w", args, err)
		}
	}
	return ready, nil
}

// timeSetups starts setupSamples fresh set-up children for the workload
// and returns each one's start-to-ready seconds.
func timeSetups(ctx context.Context, workload, dir string) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		s, err := spawn(ctx, nil, "--child", "setup", "--workload", workload, "--dir", dir)
		if err != nil {
			return nil, err
		}
		if s < 0 {
			return nil, fmt.Errorf("set-up child of %s never became ready", workload)
		}
		out = append(out, s)
	}
	return out, nil
}

// expect returns the pinned digest of a triple, corrupted under --tamper.
func (c *config) expect(exp string, trials int, seed int64) string {
	want, ok := c.pinned[digestKey(exp, trials, seed)]
	if !ok {
		return "unpinned"
	}
	return c.corrupt(want)
}

func (c *config) corrupt(digest string) string {
	if c.tamper && digest != "" {
		flipped := "0"
		if digest[0] == '0' {
			flipped = "1"
		}
		return flipped + digest[1:]
	}
	return digest
}

// check marks p failed unless its digest equals want.
func check(p *op, want string) {
	if p.Err == "" && p.Digest != want {
		p.Err = fmt.Sprintf("digest %.12s, want %.12s", p.Digest, want)
	}
}

// labelled runs f under pprof labels naming the workload and op, so a
// profile splits CPU by op from the benchmark's side.
func labelled(ctx context.Context, workload, opName string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("workload", workload, "op", opName), f)
}

// severityMeter wraps an Env's two fault models through the public
// SetSeverityFunc around the same severity calls they make by default,
// counting calls and distinct keys and timing each call.
type severityMeter struct {
	mu    sync.Mutex
	calls int64
	nanos int64
	keys  map[string]bool
}

func newSeverityMeter() *severityMeter { return &severityMeter{keys: map[string]bool{}} }

func (m *severityMeter) wrap(env *experiments.Env) {
	env.Planner.SetSeverityFunc(func(p bridge.Protection) bridge.Severity {
		return m.time("planner", p, func() bridge.Severity { return bridge.PlannerSeverityFor(p, "", quant.INT8) })
	})
	env.Controller.SetSeverityFunc(func(p bridge.Protection) bridge.Severity {
		return m.time("controller", p, func() bridge.Severity { return bridge.ControllerSeverityFor(p, "", quant.INT8) })
	})
}

func (m *severityMeter) time(side string, p bridge.Protection, f func() bridge.Severity) bridge.Severity {
	start := time.Now()
	s := f()
	d := time.Since(start).Nanoseconds()
	m.mu.Lock()
	m.calls++
	m.nanos += d
	m.keys[fmt.Sprintf("%s/%+v", side, p)] = true
	m.mu.Unlock()
	return s
}

func (m *severityMeter) snapshot() (calls, keys int64, ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls, int64(len(m.keys)), float64(m.nanos) / 1e6
}

// workCount sums episodes and steps over the summaries a store holds for
// the given experiments' grids, read back through Store.ExportTo.
func workCount(store *cache.Store, env *experiments.Env, exps []string, opt experiments.Options) (episodes, steps int64, err error) {
	var keys []string
	seen := map[string]bool{}
	for _, exp := range exps {
		d, _ := registry.Lookup(exp)
		_, ks := registry.ShardPlanFor(d, env, opt)
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	if _, err := store.ExportTo(&buf, keys); err != nil {
		return 0, 0, err
	}
	dec := json.NewDecoder(&buf)
	for {
		var rec struct {
			Entry struct {
				Summary agent.Summary `json:"summary"`
			} `json:"entry"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			return episodes, steps, nil
		} else if err != nil {
			return episodes, steps, err
		}
		episodes += int64(rec.Entry.Summary.Trials)
		for _, n := range rec.Entry.Summary.StepsAtMV {
			steps += int64(n)
		}
	}
}

// daemon is an in-process create-serve: a service.Server over a disk
// store, listening on a loopback port.
type daemon struct {
	store  *cache.Store
	env    *experiments.Env
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

// bootDaemon starts a server the way cmd/create-serve does. Its goroutines
// carry the workload's pprof labels, so server-side CPU is attributed too.
func bootDaemon(ctx context.Context, workload, dir string, workers int, sev *severityMeter) (*daemon, error) {
	store, err := cache.New(dir)
	if err != nil {
		return nil, err
	}
	store.SetMaxResident(200000)
	env := experiments.NewEnv()
	env.Cache = store
	sev.wrap(env)
	d := &daemon{store: store, env: env, served: make(chan struct{})}
	d.srv = service.New(service.Config{Env: env, Store: store, Workers: workers, MaxConcurrentJobs: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	pprof.Do(ctx, pprof.Labels("workload", workload, "op", "server"), func(context.Context) {
		d.srv.Start()
		go func() {
			defer close(d.served)
			_ = d.hs.Serve(ln)
		}()
	})
	return d, nil
}

func (d *daemon) close() {
	_ = d.hs.Close()
	<-d.served
	d.srv.Close()
}

// jsonLine prints v as one JSON line (a child's result).
func jsonLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func itoa(i int) string { return strconv.Itoa(i) }

// startProfile starts a CPU profile of the measured phase in a traced
// run; the returned function stops it and adds its attribution to into.
func (c *config) startProfile(name string) (func(into map[string]float64) error, error) {
	if !c.trace {
		return func(map[string]float64) error { return nil }, nil
	}
	path := c.profilePath(name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func(into map[string]float64) error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		return attributeProfile(path, into)
	}, nil
}

// profilePath names a traced run's CPU profile. It is kept beside the
// build, for go tool pprof with -tagfocus on the op labels.
func (c *config) profilePath(name string) string {
	return filepath.Join(filepath.Dir(c.runDir), fmt.Sprintf("%s-%d.pprof", name, c.seed))
}

// dirMB is the size of the files under dir.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1e6
}
