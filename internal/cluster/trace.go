package cluster

import (
	"fmt"
	"time"

	"cpm/internal/model"
	"cpm/internal/tracing"
)

// SetOpSpan hands the hosting server's current operation span to the
// coordinator (internal/server calls it under the monitor mutex, around
// each operation). While set, the fan-out stitches per-worker child spans
// into the span's trace and forwards its context to the workers, so one
// trace covers client → coordinator → every worker. Nil detaches.
func (c *Coordinator) SetOpSpan(sp *tracing.Span) { c.opSpan = sp }

// LastPhases reports the fleet's critical-path tick-phase breakdown: the
// per-field maximum of what each synced worker reported with its last
// Tick answer (workers run concurrently, so the slowest phase bounds the
// cycle). Workers that missed the tick — or predate the trace extension —
// contribute zeros.
func (c *Coordinator) LastPhases() model.PhaseNanos { return c.lastPhases }

// stampTrace forwards an operation's trace context to one worker
// immediately before a wire call, so the worker's server span joins the
// coordinator's trace. runOp calls it before every attempt — an
// ErrUnsent retry therefore re-stamps — and it degrades silently against
// workers that did not negotiate the trace extension.
//
// It takes the context by value, captured on the coordinator loop while
// the op span is live and sent with the request: a timed-out straggler
// can still be running after the span has finished and been recycled,
// so a worker's goroutine must never touch the *Span itself.
func stampTrace(ctx tracing.Context, w *worker) {
	if ctx.TraceID != 0 {
		w.cl.SetTrace(ctx.TraceID, ctx.SpanID)
	}
}

// workerPhaseSpans lays one worker's reported tick-phase breakdown under
// the op span as worker<N>/<phase> children, sequentially from the
// request's send time — the coordinator's local view of where that worker
// spent the tick. The diff phase overlaps the others on the worker (it is
// charged from inside them), so its span is anchored at the start rather
// than appended to the sequence.
func workerPhaseSpans(sp *tracing.Span, idx int, start time.Time, ph model.PhaseNanos) {
	if sp == nil {
		return
	}
	at := start
	lay := func(name string, ns int64) {
		if ns <= 0 {
			return
		}
		sp.ChildAt(fmt.Sprintf("worker%d/%s", idx, name), at, time.Duration(ns))
		at = at.Add(time.Duration(ns))
	}
	lay("relocate", ph.Relocate)
	lay("reeval", ph.Reeval)
	lay("queryupd", ph.QueryUpd)
	if ph.Diff > 0 {
		sp.ChildAt(fmt.Sprintf("worker%d/diff", idx), start, time.Duration(ph.Diff))
	}
}
