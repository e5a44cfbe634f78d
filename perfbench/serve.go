package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/service"
)

const (
	serveClients = 2
	// serveWindow is the number of leading jobs the counters cover.
	serveWindow = 40
	// coldEvery makes every coldEvery-th job a fig15 job at a fresh pool
	// seed: it misses the store, computes and writes beside the reads.
	coldEvery = 50
	// serveBlock is the window length, in completed jobs, of the median
	// rates: six cold jobs and fifty warm cycles.
	serveBlock = 6 * coldEvery
)

var tenants = []string{"lab-a", "lab-b", "lab-c"}

type jobSpec struct {
	exp    string
	seed   int64
	tenant string
}

// jobRec is one served job as its client saw it.
type jobRec struct {
	op
	grid, cached, toCompute int
	deduped, rejected       bool
	timing                  *obs.JobTiming
	spans                   []trace.Span
}

// runServe: two closed-loop clients submit jobs to an in-process
// service.Server over a store pre-populated at the run's trials and seed,
// follow each job's NDJSON events and fetch its result. Jobs are drawn
// from the warm set across three tenants, so compute is near zero and the
// service, registry planning/render and cache reads carry the load.
func runServe(ctx context.Context, cfg *config) (*outcome, error) {
	seed := warmSeeds[cfg.rng.IntN(len(warmSeeds))]
	coldPerm := cfg.rng.Perm(len(coldSeeds))
	dir := filepath.Join(cfg.runDir, "warm")
	o := &outcome{trials: unitTrials, clients: serveClients, window: serveWindow,
		layers: map[string]float64{}, cpuLayers: map[string]float64{}}
	refs, err := warmFixture(ctx, cfg, o, dir, seed)
	if err != nil {
		return nil, err
	}
	if o.setup, err = timeSetups(ctx, "serve", dir); err != nil {
		return nil, err
	}
	sev := newSeverityMeter()
	d, err := bootDaemon(ctx, "serve", dir, serveClients, sev)
	if err != nil {
		return nil, err
	}
	defer d.close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()

	// A long-lived daemon pays its lazy one-time work (the severity tables
	// the warm figures read) once; pay it before timing.
	for _, exp := range warmExps {
		r := serveJob(ctx, hc, d.url, jobSpec{exp, seed, tenants[0]}, false)
		check(&r.op, refs[exp])
		if r.Err != "" {
			o.broken = append(o.broken, "warm-up "+exp+": "+r.Err)
		}
	}
	sevCalls, sevKeys, sevMS0 := sev.snapshot()

	stopProfile, err := cfg.startProfile("serve")
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var recs []jobRec
	var cycle []int
	completed := 0
	ph := startPhase(serveBlock)
	next := func() (int, jobSpec, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := len(recs)
		if i >= serveWindow && time.Since(ph.start).Seconds() >= cfg.seconds {
			return 0, jobSpec{}, false
		}
		// Each cycle submits every warm experiment once, in a seeded order,
		// so every run serves the same mix.
		if i%len(warmExps) == 0 {
			cycle = cfg.rng.Perm(len(warmExps))
		}
		s := jobSpec{exp: warmExps[cycle[i%len(warmExps)]], seed: seed}
		if i%coldEvery == coldEvery/2 {
			if i/coldEvery >= len(coldSeeds) {
				return 0, jobSpec{}, false
			}
			s = jobSpec{exp: coldExp, seed: coldSeeds[coldPerm[i/coldEvery]]}
		}
		s.tenant = tenants[cfg.rng.IntN(len(tenants))]
		recs = append(recs, jobRec{})
		return i, s, true
	}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, s, ok := next()
				if !ok {
					return
				}
				var r jobRec
				labelled(ctx, "serve", s.exp, func(ctx context.Context) {
					r = serveJob(ctx, hc, d.url, s, cfg.trace)
				})
				want := refs[s.exp]
				if s.exp == coldExp {
					want = cfg.expect(coldExp, unitTrials, s.seed)
				}
				check(&r.op, want)
				mu.Lock()
				recs[i] = r
				completed++
				ph.completed(completed)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.stop(o)
	if err := stopProfile(o.cpuLayers); err != nil {
		return nil, err
	}
	o.rssMB = peakRSSMB()

	var stages [5]float64 // queue wait, plan, compute, render, transport (ms)
	timed := 0
	var spans []trace.Span
	for i, r := range recs {
		o.ops = append(o.ops, r.op)
		spans = append(spans, r.spans...)
		if r.deduped {
			o.layers["service.dedupe_joins"]++
		}
		if r.rejected {
			o.layers["service.rejected"]++
		}
		if i < serveWindow {
			o.layers["registry.grid_points"] += float64(r.grid)
			o.layers["registry.to_compute"] += float64(r.toCompute)
			o.layers["cache.hits"] += float64(r.cached)
			o.layers["cache.misses"] += float64(r.toCompute)
			if r.Exp == coldExp {
				ep, st, err := workCount(d.store, d.env, []string{coldExp},
					experiments.Options{Trials: unitTrials, Seed: r.Seed})
				if err != nil {
					return nil, err
				}
				o.layers["agent.episodes"] += float64(ep)
				o.layers["agent.steps"] += float64(st)
			}
		}
		if t := r.timing; t != nil {
			timed++
			stages[0] += t.QueueWaitSeconds * 1e3
			stages[1] += t.PlanSeconds * 1e3
			stages[2] += t.ComputeSeconds * 1e3
			stages[3] += t.RenderSeconds * 1e3
			stages[4] += r.MS - t.TotalSeconds*1e3
		}
	}
	cfg.record(spans...)
	if timed > 0 {
		for i, name := range []string{"service.queue_wait_ms", "service.plan_ms", "service.compute_ms", "service.render_ms", "service.transport_ms"} {
			o.layers[name] = stages[i] / float64(timed)
		}
		o.layers["registry.run_ms"] = (stages[1] + stages[2] + stages[3]) / float64(timed)
	}
	_, _, sevMS := sev.snapshot()
	o.layers["bridge.severity_calls"] = float64(sevCalls)
	o.layers["bridge.severity_keys"] = float64(sevKeys)
	o.layers["bridge.severity_ms"] = sevMS - sevMS0
	o.layers["cache.disk_mb"] = dirMB(dir)
	return o, nil
}

// serveJob submits one job, follows its event stream to a terminal state
// and fetches the rendered result; traced, it also pulls the job's timing
// record and spans.
func serveJob(ctx context.Context, hc *http.Client, base string, s jobSpec, traced bool) jobRec {
	r := jobRec{op: op{Exp: s.exp, Seed: s.seed, At: time.Now()}}
	seed := s.seed
	spec, _ := json.Marshal(service.JobSpec{Experiment: s.exp, Trials: unitTrials, Seed: &seed, Tenant: s.tenant})
	body, code, err := request(ctx, hc, http.MethodPost, base+"/v1/jobs", spec)
	var st service.JobStatus
	switch {
	case err != nil:
		r.Err = err.Error()
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		r.rejected = true
		r.Err = "rejected with " + strconv.Itoa(code)
	case code != http.StatusOK && code != http.StatusAccepted:
		r.Err = fmt.Sprintf("submit: %d %s", code, bytes.TrimSpace(body))
	default:
		err = json.Unmarshal(body, &st)
		if err != nil {
			r.Err = "submit: " + err.Error()
		}
	}
	if r.Err != "" {
		return r
	}
	r.deduped = st.Deduped
	jobURL := base + "/v1/jobs/" + st.ID
	if err := r.follow(ctx, hc, jobURL+"/events"); err != nil {
		r.Err = err.Error()
		return r
	}
	out, code, err := request(ctx, hc, http.MethodGet, jobURL+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: %d %s", code, bytes.TrimSpace(out))
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.MS = float64(time.Since(r.At).Nanoseconds()) / 1e6
	r.Digest = digestOf(out)
	if traced {
		var t obs.JobTiming
		if b, code, err := request(ctx, hc, http.MethodGet, jobURL+"/timing", nil); err == nil && code == http.StatusOK && json.Unmarshal(b, &t) == nil {
			r.timing = &t
		}
		if b, code, err := request(ctx, hc, http.MethodGet, jobURL+"/trace", nil); err == nil && code == http.StatusOK {
			r.spans, _ = trace.ReadNDJSON(bytes.NewReader(b))
		}
	}
	return r
}

// follow reads a job's NDJSON events until a terminal state, recording
// the plan the service announces before it computes.
func (r *jobRec) follow(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.State == "" {
			continue // keepalive
		}
		if strings.HasPrefix(ev.Message, "planned:") {
			fmt.Sscanf(ev.Message, "planned: %d grid points, %d cached, %d to compute",
				&r.grid, &r.cached, &r.toCompute)
		}
		switch ev.State {
		case service.StateDone:
			return nil
		case service.StateFailed, service.StateCanceled:
			return fmt.Errorf("job %s: %s", ev.State, ev.Message)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events stream ended before a terminal state")
}

func request(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// warmFixture builds the serve and fleet store in a child process: the
// warm set rendered locally at (unitTrials, seed) into dir. It returns the
// local render digests, which served results and fleet replays must equal.
// Fixture time is reported, but it is not set-up.
func warmFixture(ctx context.Context, cfg *config, o *outcome, dir string, seed int64) (map[string]string, error) {
	start := time.Now()
	var fix childResult
	if _, err := spawn(ctx, &fix, "--child", "fixture", "--dir", dir,
		"--child-seed", strconv.FormatInt(seed, 10)); err != nil {
		return nil, err
	}
	o.fixture = time.Since(start).Seconds()
	refs := map[string]string{}
	for _, p := range fix.Ops {
		check(&p, cfg.expect(p.Exp, unitTrials, seed))
		if p.Err != "" {
			o.broken = append(o.broken, "fixture "+p.Exp+": "+p.Err)
		}
		refs[p.Exp] = cfg.corrupt(p.Digest)
	}
	return refs, nil
}
