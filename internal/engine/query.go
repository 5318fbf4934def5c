package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/sql"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
	"insightnotes/internal/zoomin"
)

// StatementStats summarizes the runtime of one executed statement: result
// volume, pipeline work, envelope operations, and elapsed wall time. It is
// attached to Result for SELECTs and surfaced by the REPL and the server
// protocol as a one-line summary.
type StatementStats struct {
	// Rows is the number of result rows returned to the caller.
	Rows int
	// OpRows counts rows produced by all plan operators, intermediate
	// rows included.
	OpRows int64
	// Merges counts envelope merge/combine operations (joins, grouping,
	// duplicate elimination).
	Merges int64
	// Curates counts envelope curation operations (projection coverage
	// remapping).
	Curates int64
	// Wall is the statement's elapsed wall time.
	Wall time.Duration
	// QueueWait is the time the statement spent waiting for an admission
	// slot before execution began (zero when the caller measured none —
	// embedded use has no admission queue).
	QueueWait time.Duration
	// StalePending is the number of deferred summary-maintenance tasks
	// outstanding when the statement finished: above zero, the summaries
	// in this result may lag the raw annotations (degraded mode).
	StalePending int
}

// String renders the one-line per-statement summary.
func (s *StatementStats) String() string {
	out := fmt.Sprintf("%d row(s) in %s (op_rows=%d merges=%d curates=%d)",
		s.Rows, s.Wall.Round(time.Microsecond), s.OpRows, s.Merges, s.Curates)
	if s.QueueWait > 0 {
		out += fmt.Sprintf(" [queued %s]", s.QueueWait.Round(time.Microsecond))
	}
	if s.StalePending > 0 {
		out += fmt.Sprintf(" [stale: %d pending update(s)]", s.StalePending)
	}
	return out
}

// Result is the outcome of one statement.
type Result struct {
	// QID is the query id assigned to SELECT results (0 otherwise);
	// ZOOMIN commands reference it.
	QID int
	// Schema describes Rows for SELECT and ZOOMIN results.
	Schema types.Schema
	// Rows holds the result tuples with their propagated summary
	// envelopes. A SELECT's rows (not the slice) are shared with the
	// zoom-in cache's live entry for its QID, so they are read-only.
	Rows []*exec.Row
	// Message summarizes DDL/DML outcomes.
	Message string
	// Count is the number of rows affected/ingested for DML.
	Count int
	// Trace holds per-operator intermediate rows when tracing was
	// requested (the Figure 5 under-the-hood view).
	Trace []exec.TraceEntry
	// Stats carries the per-statement runtime summary (SELECT and
	// EXPLAIN ANALYZE; nil for other statements).
	Stats *StatementStats
	// Ops holds the per-operator runtime breakdown of a SELECT's plan, in
	// depth-first plan order. Feeds the structured server response and the
	// slow-query log.
	Ops []OpStat
	// ZoomAnnotations carries the raw annotations retrieved by a ZOOMIN
	// command, grouped per matched result row.
	ZoomAnnotations []ZoomRowResult
	// TraceID is the statement's lifecycle trace id (empty when tracing is
	// disabled). The trace itself is retrievable via SHOW TRACE / the
	// /traces endpoint only if the tail sampler retained it.
	TraceID string
}

// statementStats folds the execution context's counters into the
// result-level summary.
func statementStats(ec *exec.ExecContext, rows int) *StatementStats {
	t := ec.Totals()
	return &StatementStats{
		Rows:    rows,
		OpRows:  t.OpRows,
		Merges:  t.Merges,
		Curates: t.Curates,
		Wall:    ec.Elapsed(),
	}
}

// querySelect runs a SELECT and, unless its plan was ablated, registers it
// under a fresh QID and admits it to the zoom-in cache.
func (db *DB) querySelect(ec *exec.ExecContext, sel *sql.Select, sqlText string, so stmtOptions) (*Result, error) {
	op, rows, ops, err := db.collectSelect(ec, sel, so)
	if err != nil {
		return nil, err
	}
	stats := statementStats(ec, len(rows))
	stats.StalePending = db.maint.pending()
	res := &Result{
		Schema: op.Schema(),
		Rows:   rows,
		Trace:  ec.TraceEntries(),
		Stats:  stats,
		Ops:    ops,
	}
	if so.planOpts != nil {
		// Ablated plans are never registered: no QID, no zoom-in cache
		// entry, so they cannot pollute zoom-in state.
		return res, nil
	}
	res.QID = db.allocateQID()
	db.admit(res.QID, sqlText, sel, res.Schema, rows)
	return res, nil
}

// collectSelect plans sel and drains the plan: stmt.plan and stmt.exec
// spans, per-operator stats folded into the metric families. It serves a
// statement's first execution and a zoom-in's re-execution alike.
func (db *DB) collectSelect(ec *exec.ExecContext, sel *sql.Select, so stmtOptions) (exec.Operator, []*exec.Row, []OpStat, error) {
	popts := db.planOptions(so)
	if so.memo != nil {
		popts.Memo = so.memo
	}
	psp := so.lifecycle.StartSpan(trace.SpanPlan, nil)
	if so.planCacheAttr != "" {
		// "hit": the statement skipped parse and replays memoized access
		// paths; "miss": this execution records them for the next one.
		psp.Attr("cache", so.planCacheAttr)
	}
	popts.Span = psp
	p := plan.New(db.cat, db, popts)
	op, err := p.PlanSelect(sel)
	psp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	esp := so.lifecycle.StartSpan(trace.SpanExec, nil)
	var poolHits0, poolFaults0 uint64
	if esp != nil {
		ec.WithSpan(esp)
		poolHits0, poolFaults0 = db.pool.Stats()
	}
	rows, err := exec.CollectContext(ec, op)
	ops := db.foldOpStats(op, ec)
	if esp != nil {
		// Pool deltas are process-wide, so concurrent statements bleed into
		// each other's counts; still the first-order "was this IO-bound"
		// signal per trace.
		poolHits1, poolFaults1 := db.pool.Stats()
		esp.AttrInt("pool_hits", int64(poolHits1-poolHits0))
		esp.AttrInt("pool_faults", int64(poolFaults1-poolFaults0))
		esp.End()
	}
	return op, rows, ops, err
}

// admit registers one executed SELECT under qid and admits its result to
// the zoom-in cache as it is, rows by reference. The cache keeps its own
// row slice, so a caller may reorder the result's.
func (db *DB) admit(qid int, sqlText string, sel *sql.Select, schema types.Schema, rows []*exec.Row) *zoomin.LiveResult {
	live := &zoomin.LiveResult{
		QID: qid, SQL: sqlText, Columns: schema.Columns, Rows: slices.Clone(rows),
		Complexity: estimateComplexity(sel, len(rows)),
	}
	// The QID is registered either way: a result the cache could not keep
	// is re-executed by the zoom-in that wants it, so its statement does
	// not fail over a spill write.
	_ = db.cache.Put(live)
	return live
}

// estimateComplexity is the RCO cost proxy: relations joined, aggregation,
// distinct, and result volume all raise the cost of recreating a result.
func estimateComplexity(sel *sql.Select, resultRows int) float64 {
	c := 1.0
	c += 5 * float64(len(sel.From)+len(sel.Joins)-1) // join work
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		c += 5
	}
	if sel.Distinct {
		c += 3
	}
	c += float64(resultRows) / 10
	return c
}

// resultFor returns the cached result of qid, re-executing the remembered
// SQL on a cache miss (and admitting the fresh result to the cache). The
// re-execution runs under ctx, so a cancelled zoom-in never admits a
// partial result: Collect fails before the cache Put is reached. The
// boolean reports whether it was a cache hit.
func (db *DB) resultFor(ctx context.Context, qid int) (zoomin.Zoomable, bool, error) {
	cached, hit, err := db.cache.Get(qid)
	if err != nil || hit {
		return cached, hit, err
	}
	sqlText, err := db.cache.Query(qid)
	if err != nil {
		return nil, false, err
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, false, err
	}
	sel := stmt.(*sql.Select)
	op, rows, _, err := db.collectSelect(db.newExecContext(ctx, stmtOptions{}), sel, stmtOptions{})
	if err != nil {
		return nil, false, err
	}
	return db.admit(qid, sqlText, sel, op.Schema(), rows), false, nil
}
