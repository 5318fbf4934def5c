package engine

import (
	"time"

	"insightnotes/internal/plan"
	"insightnotes/internal/trace"
)

// StatementOption tunes one statement execution. The context-first entry
// points (Query, Exec, ExecScript, ExecStatement) accept any number of
// options; the zero set executes with the engine-wide defaults.
type StatementOption func(*stmtOptions)

// stmtOptions is the resolved option set of one statement.
type stmtOptions struct {
	trace bool
	// planOpts, when non-nil, replaces the engine-wide plan options for
	// this statement (the benchmark ablation switches).
	planOpts *plan.Options
	// batchSize overrides the executor batch size (0 = engine default).
	batchSize int
	// lifecycle is the statement's active lifecycle trace. The server seeds
	// it (WithActiveTrace) so its queue-wait span and the engine's spans land
	// in one trace; when nil and tracing is enabled, the engine starts one.
	lifecycle *trace.Active
	// queueWait is the admission-queue wait the server measured before
	// dispatching this statement (surfaced in stats and the slow-query log).
	queueWait time.Duration
	// memo, when non-nil, is the plan-cache access-path memo for this
	// statement (set internally by the cache consult; never by a public
	// option). planCacheAttr records the consult outcome ("hit"/"miss")
	// for the stmt.plan span.
	memo          *plan.PathMemo
	planCacheAttr string
}

func gatherOptions(opts []StatementOption) stmtOptions {
	var so stmtOptions
	for _, o := range opts {
		o(&so)
	}
	return so
}

// WithTrace enables the under-the-hood operator log for this statement:
// every pipeline stage records its intermediate tuples and their summary
// renderings into Result.Trace (the Figure 5 view).
func WithTrace() StatementOption {
	return func(so *stmtOptions) { so.trace = true }
}

// WithPlanOptions replaces the engine-wide plan options for this statement
// — the ablation switches used by benchmarks and tests. A SELECT carrying
// explicit plan options is not registered under a QID and never touches the
// zoom-in cache, so ablated plans cannot pollute zoom-in state.
func WithPlanOptions(po plan.Options) StatementOption {
	return func(so *stmtOptions) { so.planOpts = &po }
}

// WithBatchSize sets this statement's executor batch size (rows per
// operator NextBatch call). Values below 1 fall back to the engine default.
func WithBatchSize(n int) StatementOption {
	return func(so *stmtOptions) { so.batchSize = n }
}

// WithActiveTrace attaches an already-started lifecycle trace to this
// statement instead of letting the engine start its own — the server uses
// it so wire-level spans (admission-queue wait) and engine spans share one
// trace. The engine finishes the trace when the statement completes.
func WithActiveTrace(at *trace.Active) StatementOption {
	return func(so *stmtOptions) { so.lifecycle = at }
}

// WithQueueWait records the admission-queue wait the caller measured before
// dispatching this statement; it is surfaced in StatementStats and
// slow-query log entries.
func WithQueueWait(d time.Duration) StatementOption {
	return func(so *stmtOptions) { so.queueWait = d }
}

// planOptions resolves the plan options for one statement: the engine-wide
// configuration unless the statement overrides it, with the statement's
// trace flag applied on top.
func (db *DB) planOptions(so stmtOptions) plan.Options {
	opts := db.cfg.PlanOptions
	if so.planOpts != nil {
		opts = *so.planOpts
	}
	opts.Trace = so.trace
	return opts
}
