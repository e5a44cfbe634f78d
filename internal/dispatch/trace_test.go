package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs/trace"
)

// TestFleetTraceIDDeterministic: the fleet trace ID is a pure function of
// the plan identity, so a replayed run traces under the same ID.
func TestFleetTraceIDDeterministic(t *testing.T) {
	a := FleetTraceID([]string{"fig16"}, 3, 2026, 4)
	b := FleetTraceID([]string{"fig16"}, 3, 2026, 4)
	if a != b || len(a) != 32 {
		t.Fatalf("fleet trace id unstable or malformed: %s vs %s", a, b)
	}
	if FleetTraceID([]string{"fig16"}, 3, 2027, 4) == a {
		t.Fatal("different seed should derive a different trace id")
	}
}

// TestCoordinatorStitchedTrace is the tentpole acceptance gate: a
// 2-worker sharded run produces ONE trace — coordinator plan/dispatch/
// merge spans and every worker's job/compute spans share the fleet trace
// ID, every span's parent exists, and worker job spans nest under the
// dispatch span that sent them (proof the traceparent header propagated
// over HTTP). The Chrome export of the stitched timeline parses.
func TestCoordinatorStitchedTrace(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19")
	want := singleNode(t, sel, opt)

	w1, _ := newWorker(t)
	w2, _ := newWorker(t)
	store, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store

	const numShards = 4
	rec := trace.NewRecorder(FleetTraceID([]string{"fig19"}, opt.Trials, opt.Seed, numShards), "coordinator")
	stage := t.TempDir()
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{
			&HTTPRunner{BaseURL: w1, StageDir: filepath.Join(stage, "w1"), Local: store, Trace: rec},
			&HTTPRunner{BaseURL: w2, StageDir: filepath.Join(stage, "w2"), Local: store, Trace: rec},
		},
		Trace: rec,
	}
	var out bytes.Buffer
	if _, err := coord.Run(context.Background(), &out, sel, opt, numShards, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("traced run diverged from single-node output")
	}

	spans := rec.Spans()
	ids := map[string]trace.Span{}
	for _, sp := range spans {
		if sp.TraceID != rec.TraceID() {
			t.Fatalf("span %q carries trace %s, want the fleet's %s", sp.Name, sp.TraceID, rec.TraceID())
		}
		ids[sp.SpanID] = sp
	}
	for _, sp := range spans {
		if sp.ParentID != "" {
			if _, ok := ids[sp.ParentID]; !ok {
				t.Fatalf("span %q has dangling parent %s", sp.Name, sp.ParentID)
			}
		}
	}

	count := func(prefix string) int {
		n := 0
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, prefix) {
				n++
			}
		}
		return n
	}
	// Coordinator-side singletons match on node: the workers' own "plan"
	// spans were stitched in too and must not be confused with them.
	countAt := func(name, node string) int {
		n := 0
		for _, sp := range spans {
			if sp.Name == name && sp.Attrs["node"] == node {
				n++
			}
		}
		return n
	}
	if countAt("coordinate", "coordinator") != 1 {
		t.Fatalf("want exactly one fleet root span, got %d", countAt("coordinate", "coordinator"))
	}
	if countAt("plan", "coordinator") != 1 || countAt("replay", "coordinator") != 1 {
		t.Fatalf("plan/replay spans = %d/%d, want 1/1",
			countAt("plan", "coordinator"), countAt("replay", "coordinator"))
	}
	if got := count("dispatch "); got != numShards {
		t.Fatalf("dispatch spans = %d, want one per shard (%d)", got, numShards)
	}
	if got := count("merge "); got != numShards {
		t.Fatalf("merge spans = %d, want one per shard (%d)", got, numShards)
	}

	// Worker-side job spans were pulled back and stitched: each "job *"
	// root nests under the dispatch span that sent its shard, and its node
	// attr names the worker that ran it.
	jobSpans := 0
	workers := map[string]bool{}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "job ") {
			continue
		}
		jobSpans++
		parent, ok := ids[sp.ParentID]
		if !ok || !strings.HasPrefix(parent.Name, "dispatch ") {
			t.Fatalf("worker job span %q should nest under a dispatch span, parent = %+v", sp.Name, parent)
		}
		if sp.Attrs["node"] != w1 && sp.Attrs["node"] != w2 {
			t.Fatalf("job span node = %q, want a worker URL", sp.Attrs["node"])
		}
		workers[sp.Attrs["node"]] = true
	}
	if jobSpans != numShards {
		t.Fatalf("stitched %d worker job spans, want %d (one per dispatched shard)", jobSpans, numShards)
	}
	if len(workers) != 2 {
		t.Fatalf("job spans name %d distinct workers, want 2", len(workers))
	}
	// The per-shard compute children came along too.
	if got := count("shard "); got != numShards {
		t.Fatalf("worker shard-compute spans = %d, want %d", got, numShards)
	}

	// The stitched timeline exports as valid Chrome trace-event JSON with
	// one complete event per span — the artifact -trace-out writes.
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, spans); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &ct); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	complete, lanes := 0, map[int]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			complete++
			lanes[ev.PID] = true
		}
	}
	if complete != len(spans) {
		t.Fatalf("chrome export has %d complete events for %d spans", complete, len(spans))
	}
	// At least three process lanes: the coordinator and both workers.
	if len(lanes) < 3 {
		t.Fatalf("chrome export has %d process lanes, want coordinator + 2 workers", len(lanes))
	}
}

// TestDispatchFakeClockDurations: with the dispatch tier's clock seam
// stepped one second per read, every coordinator span has an exactly
// predictable duration — the seam turns span arithmetic into an equality
// assertion.
func TestDispatchFakeClockDurations(t *testing.T) {
	clk := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Date(2026, 5, 6, 7, 8, 9, 0, time.UTC)}
	old := now
	now = func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		clk.t = clk.t.Add(time.Second)
		return clk.t
	}
	defer func() { now = old }()

	opt := testOptions()
	sel := selection(t, "fig19")
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	rec := trace.NewRecorder(FleetTraceID([]string{"fig19"}, opt.Trials, opt.Seed, 1), "coordinator")
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{&LocalRunner{Env: env, Name: "local-1", Trace: rec}},
		Trace:   rec,
	}
	var out bytes.Buffer
	if _, err := coord.Run(context.Background(), &out, sel, opt, 1, false); err != nil {
		t.Fatal(err)
	}

	// Clock-call order with one shard on one local runner: runStart[1],
	// plan end[2], dispatch start[3], compute start[4], compute end[5],
	// dispatch end[6], merge start[7], merge end[8], replay start[9],
	// replay end[10], root end[11].
	byName := map[string]trace.Span{}
	for _, sp := range rec.Spans() {
		byName[sp.Name] = sp
	}
	for name, want := range map[string]time.Duration{
		"plan":         time.Second,
		"dispatch 1/1": 3 * time.Second,
		"compute 1/1":  time.Second,
		"merge 1/1":    time.Second,
		"replay":       time.Second,
		"coordinate":   10 * time.Second,
	} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s span; have %v", name, byName)
		}
		if got := sp.End.Sub(sp.Start); got != want {
			t.Errorf("%s span duration = %v, want exactly %v", name, got, want)
		}
	}
	if byName["compute 1/1"].ParentID != byName["dispatch 1/1"].SpanID {
		t.Fatal("local compute span should nest under its dispatch span")
	}
	if byName["merge 1/1"].ParentID != byName["dispatch 1/1"].SpanID {
		t.Fatal("merge span should nest under its dispatch span")
	}
}
