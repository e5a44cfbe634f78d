package dispatch

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/embodiedai/create/internal/obs/trace"
)

//create:walltime-ok dispatch/merge/replay span stamps are operational metadata; figure bytes come from the deterministic replay

// now is the dispatch tier's single wall-clock seam: every span stamp
// flows through it so tests can inject a fake clock and assert exact
// durations.
var now = time.Now

var discardLogger = slog.New(slog.DiscardHandler)

// log returns the coordinator's structured logger (discard when unset):
// its one progress stream, carrying the trace/span IDs that join
// coordinator logs to worker logs.
func (c *Coordinator) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return discardLogger
}

// spanKey threads the active dispatch span across the Runner interface
// boundary: RunShard's signature is fixed, so the span context rides the
// context.Context, exactly like cancellation does.
type spanKey struct{}

func withSpan(ctx context.Context, sc trace.SpanContext) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) (trace.SpanContext, bool) {
	sc, ok := ctx.Value(spanKey{}).(trace.SpanContext)
	return sc, ok && sc.Valid()
}

// FleetTraceID derives the deterministic trace ID of one coordinator run
// from its plan identity. Exported so cmd/create-coordinator can build
// the shared recorder (coordinator + all runners) before planning.
func FleetTraceID(experiments []string, trials int, seed int64, numShards int) string {
	fp := fmt.Sprintf("%s|%d|%d|%d", strings.Join(experiments, ","), trials, seed, numShards)
	return trace.DeriveTraceID(fp, 0)
}

// ensureTrace returns the run's recorder, lazily allocating one from the
// plan fingerprint when the caller did not inject a shared recorder —
// span accounting is always on, mirroring how Metrics lazily allocates.
func (c *Coordinator) ensureTrace(plan ShardPlan) *trace.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Trace == nil {
		c.Trace = trace.NewRecorder(
			FleetTraceID(plan.Experiments, plan.Trials, plan.Seed, plan.NumShards),
			"coordinator")
	}
	return c.Trace
}

// rootSpanID mints the fleet root span ID once per coordinator; Execute
// reads it (possibly empty, when Execute is driven without Run) as the
// parent for dispatch spans.
func (c *Coordinator) mintRootSpan(rec *trace.Recorder) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rootSpan == "" {
		c.rootSpan = rec.NewSpanID()
	}
	return c.rootSpan
}

func (c *Coordinator) rootSpanID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rootSpan
}
