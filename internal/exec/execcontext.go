package exec

import (
	"context"
	"time"

	"insightnotes/internal/trace"
)

// DefaultBatchSize is the number of rows moved per NextBatch call when the
// statement does not override it. Large enough to amortize per-batch
// overhead (cancellation poll, clock reads, virtual dispatch), small
// enough to keep a batch of tuples plus envelopes cache-resident.
const DefaultBatchSize = 256

// StatementTotals are the statement-wide execution counters accumulated
// across every operator of one statement's plan.
type StatementTotals struct {
	// OpRows is the total number of rows produced by all operators
	// (intermediate rows included) — a proxy for pipeline work.
	OpRows int64
	// Merges counts envelope merge/combine operations (joins, grouping,
	// duplicate elimination).
	Merges int64
	// Curates counts envelope curation operations (projection coverage
	// remapping).
	Curates int64
}

// ExecContext is the per-statement execution context threaded through
// every Operator.Open/NextBatch call. It carries the caller's cancellation
// context, the statement's batch size, the per-statement runtime
// statistics collector, and — when the under-the-hood trace is requested —
// the per-statement trace sink.
//
// One ExecContext belongs to exactly one statement execution on one
// goroutine; it is not safe for concurrent use. A nil *ExecContext is
// tolerated everywhere (no cancellation, no stats, no trace), which keeps
// ad-hoc operator drivers in tests simple.
type ExecContext struct {
	ctx   context.Context
	batch int
	// timed enables per-operator wall-time collection and feeds those walls
	// into the insightnotes_exec_op_seconds histograms. WithTiming sets
	// it; lifecycle tracing (WithSpan) leaves it off so traced statements
	// don't pay per-batch clock reads.
	timed bool
	trace *TraceSink
	// span is the statement's lifecycle exec span; operator spans are
	// synthesized under it from the per-operator stats after the plan
	// drains, so stats and spans share this one plumbing.
	span   *trace.SpanHandle
	totals StatementTotals
	start  time.Time
}

// NewContext creates an execution context over ctx (nil means
// context.Background()).
func NewContext(ctx context.Context) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ExecContext{ctx: ctx, start: time.Now()}
}

// Background is a context with no cancellation, for tests and internal
// drivers.
func Background() *ExecContext { return NewContext(context.Background()) }

// WithTrace attaches a fresh per-statement trace sink and returns ec.
func (ec *ExecContext) WithTrace() *ExecContext {
	ec.trace = &TraceSink{}
	return ec
}

// WithTiming enables per-operator wall-time collection AND histogram
// feeding (EXPLAIN ANALYZE and the engine's sampled statements) and
// returns ec. Timing is opt-in because it costs two clock reads per
// operator per batch.
func (ec *ExecContext) WithTiming() *ExecContext {
	ec.timed = true
	return ec
}

// Timed reports whether WithTiming enabled per-operator wall-time
// collection, whose walls then feed the latency histograms.
func (ec *ExecContext) Timed() bool { return ec != nil && ec.timed }

// WithSpan attaches the statement's lifecycle exec span and returns ec.
// Attaching a span deliberately does NOT enable per-batch wall-time
// collection: operator spans synthesized from the stats carry row counts
// on every traced statement, but their walls are populated only for the
// histogram-sampled subset (WithTiming) — two clock reads per operator
// per batch is too expensive to pay on the untraced fast path's budget.
func (ec *ExecContext) WithSpan(sp *trace.SpanHandle) *ExecContext {
	ec.span = sp
	return ec
}

// Span returns the statement's lifecycle exec span (nil when the statement
// is not being traced).
func (ec *ExecContext) Span() *trace.SpanHandle {
	if ec == nil {
		return nil
	}
	return ec.span
}

// WithBatchSize overrides the pipeline batch size (rows per NextBatch
// call) and returns ec. Values below one fall back to DefaultBatchSize.
func (ec *ExecContext) WithBatchSize(n int) *ExecContext {
	ec.batch = n
	return ec
}

// BatchSize is the number of rows an operator should aim to produce per
// NextBatch call.
func (ec *ExecContext) BatchSize() int {
	if ec == nil || ec.batch < 1 {
		return DefaultBatchSize
	}
	return ec.batch
}

// Context returns the underlying cancellation context.
func (ec *ExecContext) Context() context.Context {
	if ec == nil {
		return context.Background()
	}
	return ec.ctx
}

// Tracing reports whether the under-the-hood trace is being collected.
func (ec *ExecContext) Tracing() bool { return ec != nil && ec.trace != nil }

// TraceEntries returns the accumulated trace entries (nil when tracing was
// not enabled).
func (ec *ExecContext) TraceEntries() []TraceEntry {
	if ec == nil || ec.trace == nil {
		return nil
	}
	return ec.trace.Entries()
}

// Totals returns the statement-wide counters accumulated so far.
func (ec *ExecContext) Totals() StatementTotals {
	if ec == nil {
		return StatementTotals{}
	}
	return ec.totals
}

// Elapsed is the wall time since the context was created.
func (ec *ExecContext) Elapsed() time.Duration {
	if ec == nil {
		return 0
	}
	return time.Since(ec.start)
}

// Err polls the underlying context unconditionally — used at statement
// entry so an already-cancelled or expired context fails fast regardless
// of input size.
func (ec *ExecContext) Err() error {
	if ec == nil {
		return nil
	}
	return ec.ctx.Err()
}

// checkCancel is the batch-granularity cancellation poll: row-producing
// leaf operators call it once per batch of input rows, so a statement
// observes cancellation within one batch of rows without paying a context
// poll per row.
func (ec *ExecContext) checkCancel() error {
	if ec == nil {
		return nil
	}
	return ec.ctx.Err()
}

// ---- per-operator instrumentation ----

// OpStats are the runtime counters of one operator instance, surfaced by
// EXPLAIN ANALYZE.
type OpStats struct {
	// Rows produced by NextBatch over the operator's lifetime.
	Rows int64
	// Batches produced over the operator's lifetime.
	Batches int64
	// Merges counts envelope merge/combine operations performed here.
	Merges int64
	// Curates counts envelope curation (coverage remap) operations.
	Curates int64
	// Wall is cumulative time spent inside NextBatch, inclusive of
	// children. Collected only when the context enables timing.
	Wall time.Duration
}

// Instrumented is implemented by operators exposing runtime counters; all
// operators in this package implement it via the embedded instr.
type Instrumented interface {
	Stats() OpStats
}

// instr is the embedded per-operator stats carrier.
type instr struct {
	st OpStats
}

// Stats implements Instrumented.
func (i *instr) Stats() OpStats { return i.st }

// begin starts a wall-time measurement when timing is enabled.
func (i *instr) begin(ec *ExecContext) time.Time {
	if ec == nil || !ec.timed {
		return time.Time{}
	}
	return time.Now()
}

// produced records a NextBatch outcome: a batch (nil at end of stream) and
// the elapsed wall time when timing is enabled.
func (i *instr) produced(ec *ExecContext, start time.Time, b *Batch) {
	if n := b.Len(); n > 0 {
		i.st.Rows += int64(n)
		i.st.Batches++
		if ec != nil {
			ec.totals.OpRows += int64(n)
		}
	}
	if ec != nil && ec.timed {
		i.st.Wall += time.Since(start)
	}
}

// merged records one envelope merge/combine operation.
func (i *instr) merged(ec *ExecContext) {
	i.st.Merges++
	if ec != nil {
		ec.totals.Merges++
	}
}

// curated records one envelope curation operation.
func (i *instr) curated(ec *ExecContext) {
	i.st.Curates++
	if ec != nil {
		ec.totals.Curates++
	}
}
