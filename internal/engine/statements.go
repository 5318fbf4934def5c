package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/sql"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// Exec parses and executes one statement of any kind — SQL or InsightNotes
// extension — under ctx and returns its result. Options are honored for
// SELECTs (WithTrace, WithPlanOptions, WithBatchSize) and
// ignored by statements they do not apply to.
func (db *DB) Exec(ctx context.Context, sqlText string, opts ...StatementOption) (*Result, error) {
	return db.run(ctx, nil, sqlText, false, opts)
}

// Query is Exec for callers that expect a SELECT: any other statement is
// refused before it runs. A SELECT is planned and executed under ctx
// (polled at batch granularity), assigned a QID, and its result kept live
// in the zoom-in cache; a statement carrying WithPlanOptions is not
// QID-registered and never touches that cache. The result's rows are
// shared with the cache, so the caller must not change them.
func (db *DB) Query(ctx context.Context, sqlText string, opts ...StatementOption) (*Result, error) {
	return db.run(ctx, nil, sqlText, true, opts)
}

// ExecStatement is Exec for an already parsed statement. sqlText is the
// statement's text: the trace label, and what a zoom-in cache miss
// re-executes for a SELECT.
func (db *DB) ExecStatement(ctx context.Context, stmt sql.Statement, sqlText string, opts ...StatementOption) (*Result, error) {
	return db.run(ctx, stmt, sqlText, false, opts)
}

// ExecScript executes a semicolon-separated script under ctx (checked
// before and during every statement), stopping at the first error and
// returning the results of the completed statements.
func (db *DB) ExecScript(ctx context.Context, script string, opts ...StatementOption) ([]*Result, error) {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		res, err := db.ExecStatement(ctx, stmt, stmt.String(), opts...)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// run is the one statement path. It marks the entry instant — one clock
// read serves the trace start and the metrics latency baseline — makes sure
// the statement has a lifecycle trace when tracing is on (the caller's, via
// WithActiveTrace, or a new one), parses the text unless the caller brought
// a statement or the plan cache has it, dispatches under a panic guard, and
// folds the outcome into metrics, the slow-query log and the trace store.
//
// A panic in statement execution becomes an error on this statement
// instead of tearing down the process: the locks taken below are released
// by deferred calls during unwinding, so the engine stays usable.
func (db *DB) run(ctx context.Context, stmt sql.Statement, sqlText string, selectOnly bool, opts []StatementOption) (res *Result, err error) {
	so := gatherOptions(opts)
	start := time.Now()
	if so.lifecycle == nil {
		so.lifecycle = db.tracer.StartAt(sqlText, start)
	}
	if stmt == nil {
		if stmt, err = db.parse(&so, sqlText); err != nil {
			// A statement that never parsed has no kind-labeled metrics, but
			// its trace is finished (and always retained, being errored) so
			// the failure is visible in SHOW TRACES.
			so.lifecycle.Finish("parse_error", err)
			return nil, err
		}
	}
	if _, isSelect := stmt.(*sql.Select); selectOnly && !isSelect {
		err = fmt.Errorf("engine: Query expects a SELECT; use Exec for %T", stmt)
	} else {
		func() {
			defer func() {
				if r := recover(); r != nil {
					res, err = nil, fmt.Errorf("engine: internal error executing statement: %v", r)
				}
			}()
			res, err = db.dispatch(ctx, stmt, sqlText, so)
		}()
	}
	db.finishStatement(stmt.Class().Kind, sqlText, start, res, err, so)
	db.maybeAutoCheckpoint()
	return res, err
}

// parse returns the statement for sqlText: the plan cache's template on a
// hit — lexing and parsing are skipped (no stmt.parse span) and planning
// replays the memoized access paths — otherwise a fresh parse, admitted to
// the cache when it is a parameterless SELECT.
func (db *DB) parse(so *stmtOptions, sqlText string) (sql.Statement, error) {
	if stmt, ok := db.cachedStatement(so, sqlText); ok {
		return stmt, nil
	}
	psp := so.lifecycle.StartSpan(trace.SpanParse, nil)
	stmt, err := sql.Parse(sqlText)
	psp.End()
	if err != nil {
		return nil, err
	}
	db.cacheStatement(so, sqlText, stmt)
	return stmt, nil
}

// dispatch runs one statement under the lock its access class calls for
// (see sql.Class): reads share the statement lock, writes run inside the
// commit shell, node-local statements take what they need themselves.
func (db *DB) dispatch(ctx context.Context, stmt sql.Statement, sqlText string, so stmtOptions) (*Result, error) {
	switch stmt.Class().Access {
	case sql.Read:
		db.stmtMu.RLock()
		defer db.stmtMu.RUnlock()
		return db.execRead(ctx, stmt, sqlText, so)
	case sql.Write:
		var res *Result
		err := db.commit(so.lifecycle, func() (err error) {
			res, err = db.execWrite(stmt)
			return err
		})
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	switch s := stmt.(type) {
	case *sql.Prepare:
		return db.execPrepare(s)
	case *sql.Deallocate:
		return db.execDeallocate(s)
	case *sql.Execute:
		return db.execExecute(ctx, s, so)
	case *sql.CheckTable:
		// The sweep verifies under the shared lock and repairs under the
		// exclusive one, in sections of its own.
		return db.execCheckTable(s, so)
	case *sql.Show: // SHOW METRICS
		return db.execShow(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// commit is the one write shell: every mutation — a SQL statement or a
// programmatic mutator — runs inside it. It takes the statement lock
// exclusively, opens the stmt.exec span and publishes it as db.writeSpan so
// the layers below can hang stmt.plan and wal.append under it, runs mutate,
// takes the sync token of whatever mutate staged (logRecord), and releases
// the lock. Only then does it wait for the record's commit fsync, under
// wal.commit, so concurrent writers share fsyncs (group commit) instead of
// each paying one under the lock. lc is nil for programmatic callers; the
// spans are then no-ops.
func (db *DB) commit(lc *trace.Active, mutate func() error) error {
	var tok wal.SyncToken
	err := func() error {
		db.stmtMu.Lock()
		esp := lc.StartSpan(trace.SpanExec, nil)
		db.writeSpan = esp
		defer func() {
			db.writeSpan = nil
			esp.End()
			tok = db.takePendingSync()
			db.stmtMu.Unlock()
		}()
		return mutate()
	}()
	if db.wal != nil {
		csp := lc.StartSpan(trace.SpanWALCommit, nil)
		serr := db.syncWAL(tok)
		csp.End()
		if err == nil {
			err = serr
		}
	}
	return err
}

// execRead executes one read statement. Callers hold the shared statement
// lock.
func (db *DB) execRead(ctx context.Context, stmt sql.Statement, sqlText string, so stmtOptions) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		return db.querySelect(db.newExecContext(ctx, so), s, sqlText, so)
	case *sql.Show:
		return db.execShow(s)
	case *sql.Explain:
		return db.execExplain(ctx, s, so)
	case *sql.ZoomIn:
		zsp := so.lifecycle.StartSpan(trace.SpanZoomExpand, nil)
		zsp.AttrInt("qid", int64(s.QID))
		results, hit, err := db.zoomIn(ctx, ZoomInRequest{
			QID: s.QID, Where: s.Where, Instance: s.Instance, Index: s.Index,
		})
		if err != nil {
			zsp.End()
			return nil, err
		}
		src, attr := "re-executed", "re_executed"
		if hit {
			src, attr = "cache hit", "cache_hit"
		}
		zsp.Attr("source", attr)
		zsp.End()
		rows := zoomRows(results)
		return &Result{
			Schema:          zoomResultSchema(),
			Rows:            rows,
			ZoomAnnotations: results,
			Message:         fmt.Sprintf("%d raw annotation(s) retrieved (%s)", len(rows), src),
			Count:           len(rows),
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// execWrite executes one mutating statement: it resolves the statement
// into a record — every step that can fail comes first — and applies and
// logs that record through mutate. Callers are inside the commit shell,
// which syncs the staged record after releasing the lock.
func (db *DB) execWrite(stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.CreateTable:
		cols := make([]types.Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
		}
		if _, err := db.mutate(walTypeCreateTable, &walCreateTable{Name: s.Name, Columns: cols}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s created", s.Name)}, nil
	case *sql.CreateIndex:
		tbl, err := db.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if _, err := db.mutate(walTypeCreateIndex, &walCreateIndex{Table: tbl.Name(), Column: s.Column}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("index created on %s(%s)", tbl.Name(), s.Column)}, nil
	case *sql.DropTable:
		tbl, err := db.cat.Table(s.Name)
		if err != nil {
			return nil, err
		}
		if _, err := db.mutate(walTypeDropTable, &walName{Name: tbl.Name()}); err != nil {
			return nil, err
		}
		return &Result{Message: "table dropped"}, nil
	case *sql.Insert:
		return db.execInsert(s)
	case *sql.Update:
		return db.execUpdate(s)
	case *sql.Delete:
		return db.execDelete(s)
	case *sql.AddAnnotation:
		ids, n, err := db.annotate([]annotateItem{{
			ann:   annotation.Annotation{Author: s.Author, Text: s.Text, Title: s.Title, Document: s.Document},
			specs: []TargetSpec{{Table: s.Table, Columns: s.Columns, Where: s.Where}},
		}})
		if err != nil {
			return nil, err
		}
		return &Result{
			Message: fmt.Sprintf("annotation %d attached to %d tuple(s)", ids[0], n),
			Count:   n,
		}, nil
	case *sql.DropAnnotation:
		if _, err := db.mutate(walTypeDropAnnotation, &walDropAnnotation{ID: annotation.ID(s.ID)}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("annotation %d retracted", s.ID), Count: 1}, nil
	case *sql.TrainSummary:
		if _, err := db.mutate(walTypeTrain, &walTrain{Instance: s.Name, Samples: s.Samples}); err != nil {
			return nil, err
		}
		return &Result{
			Message: fmt.Sprintf("%d sample(s) trained into %s", len(s.Samples), s.Name),
			Count:   len(s.Samples),
		}, nil
	case *sql.LinkSummary:
		if _, err := db.mutate(walTypeLink, &walLink{Instance: s.Instance, Table: s.Table, Unlink: s.Unlink}); err != nil {
			return nil, err
		}
		if s.Unlink {
			return &Result{Message: fmt.Sprintf("%s unlinked from %s", s.Instance, s.Table)}, nil
		}
		return &Result{Message: fmt.Sprintf("%s linked to %s", s.Instance, s.Table)}, nil
	case *sql.CreateSummaryInstance:
		in, err := instanceFromStatement(s.Name, s.Type, s.Labels, s.Options)
		if err != nil {
			return nil, err
		}
		if _, err := db.mutate(walTypeCreateInstance, &walCreateInstance{Instance: in}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("summary instance %s (%s) created", in.Name, in.Type)}, nil
	case *sql.DropSummaryInstance:
		if _, err := db.mutate(walTypeDropInstance, &walName{Name: s.Name}); err != nil {
			return nil, err
		}
		return &Result{Message: "summary instance dropped"}, nil
	case *sql.Checkpoint:
		ci, err := db.checkpointLocked()
		if err != nil {
			return nil, err
		}
		return &Result{
			Message: fmt.Sprintf("checkpoint complete: snapshot %d byte(s) at lsn %d, %d wal byte(s) released",
				ci.SnapshotBytes, ci.LSN, ci.ReleasedWALBytes),
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// execCheckTable runs CHECK TABLE and tabulates what the index check found.
func (db *DB) execCheckTable(s *sql.CheckTable, so stmtOptions) (*Result, error) {
	rep, err := db.CheckTable(s.Table, so.lifecycle)
	if err != nil {
		return nil, err
	}
	repaired := 0
	for _, f := range rep.Faults {
		if f.Repaired {
			repaired++
		}
	}
	return &Result{
		Schema: integritySchema(),
		Rows:   integrityRows(rep.Faults),
		Message: fmt.Sprintf("table %s: %d fault(s), %d repaired, %d unrepaired",
			s.Table, len(rep.Faults), repaired, len(rep.Faults)-repaired),
		Count: len(rep.Faults),
	}, nil
}

// execExplain plans the query and renders the operator tree, one node per
// row. EXPLAIN ANALYZE additionally executes the plan under a timed
// context and annotates every node with its runtime counters.
func (db *DB) execExplain(ctx context.Context, s *sql.Explain, so stmtOptions) (*Result, error) {
	p := plan.New(db.cat, db, db.planOptions(so))
	op, err := p.PlanSelect(s.Query)
	if err != nil {
		return nil, err
	}
	rendered := exec.Explain(op)
	var stats *StatementStats
	if s.Analyze {
		ec := db.newExecContext(ctx, so).WithTiming()
		collected, err := exec.CollectContext(ec, op)
		if err != nil {
			return nil, err
		}
		rendered = exec.ExplainAnalyze(op)
		stats = statementStats(ec, len(collected))
		rendered += "\nTotal: " + stats.String()
	}
	schema := types.NewSchema(types.Column{Name: "plan", Kind: types.KindString})
	var rows []*exec.Row
	for _, line := range strings.Split(rendered, "\n") {
		rows = append(rows, &exec.Row{Tuple: types.Tuple{types.NewString(line)}})
	}
	return &Result{Schema: schema, Rows: rows, Stats: stats}, nil
}

// dropTable removes a table, whose rows' envelopes go with it, detaching
// its rows' annotations as DELETE does: annotations attached nowhere else
// are removed; while redoing, their ids are kept in db.detached. name must
// be the canonical table name.
func (db *DB) dropTable(name string) error {
	// Queued maintenance targeting this table must not recreate its
	// envelopes after the drop.
	db.maint.drain()
	for _, row := range db.anns.AnnotatedRows(name) {
		_, gone, err := db.anns.DetachRow(name, row)
		if err != nil {
			return err
		}
		for _, id := range gone {
			if db.redoing {
				db.detached[id] = true
			}
		}
	}
	return db.cat.DropTable(name)
}

// dropInstance unlinks an instance everywhere and deregisters it.
func (db *DB) dropInstance(name string) error {
	// Queued tasks capture instance pointers; drain so none re-adds this
	// instance's objects after the drop (unlinkInstance drains too, but an
	// unlinked instance has no tables to iterate).
	db.maint.drain()
	for _, tbl := range db.cat.TablesFor(name) {
		if err := db.unlinkInstance(name, tbl); err != nil {
			return err
		}
	}
	return db.cat.DropInstance(name)
}

// execInsert is row ingest, INSERT and BULK INSERT alike: every row is
// evaluated, validated and given its id before any is inserted, so a
// statement with a malformed row mutates nothing, and the rows are one
// insert record — N rows cost one lock handoff and one group-commit fsync.
func (db *DB) execInsert(s *sql.Insert) (*Result, error) {
	verb, done := "INSERT", "inserted"
	if s.Bulk {
		verb, done = "BULK INSERT", "bulk inserted"
	}
	tbl, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	inserted := make([]walRow, len(s.Rows))
	next := tbl.NextRow()
	for i, row := range s.Rows {
		tu, err := evalConstExprs(row, verb+" values")
		if err != nil {
			return nil, err
		}
		if err := tbl.Validate(tu); err != nil {
			return nil, fmt.Errorf("row %d: %w", i+1, err)
		}
		inserted[i] = walRow{ID: next + types.RowID(i), Values: tu}
	}
	if _, err := db.mutate(walTypeInsert, &walRows{Table: tbl.Name(), Rows: inserted}); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d row(s) %s into %s", len(inserted), done, tbl.Name()), Count: len(inserted)}, nil
}

func (db *DB) execShow(s *sql.Show) (*Result, error) {
	switch s.What {
	case "TABLES":
		schema := types.NewSchema(
			types.Column{Name: "table_name", Kind: types.KindString},
			types.Column{Name: "rows", Kind: types.KindInt},
			types.Column{Name: "linked_summaries", Kind: types.KindString},
		)
		var rows []*exec.Row
		for _, name := range db.cat.TableNames() {
			tbl, _ := db.cat.Table(name)
			var links []string
			for _, in := range db.cat.InstancesFor(name) {
				links = append(links, in.Name)
			}
			rows = append(rows, &exec.Row{Tuple: types.Tuple{
				types.NewString(name),
				types.NewInt(int64(tbl.Len())),
				types.NewString(strings.Join(links, ", ")),
			}})
		}
		return &Result{Schema: schema, Rows: rows}, nil
	case "SUMMARIES":
		schema := types.NewSchema(
			types.Column{Name: "instance", Kind: types.KindString},
			types.Column{Name: "type", Kind: types.KindString},
			types.Column{Name: "linked_tables", Kind: types.KindString},
			types.Column{Name: "summarize_once", Kind: types.KindBool},
		)
		var rows []*exec.Row
		for _, name := range db.cat.InstanceNames() {
			in, _ := db.cat.Instance(name)
			rows = append(rows, &exec.Row{Tuple: types.Tuple{
				types.NewString(name),
				types.NewString(string(in.Type)),
				types.NewString(strings.Join(db.cat.TablesFor(name), ", ")),
				types.NewBool(in.Props.SummarizeOnce()),
			}})
		}
		return &Result{Schema: schema, Rows: rows}, nil
	case "ANNOTATIONS":
		tbl, err := db.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		schema := types.NewSchema(
			types.Column{Name: "row_id", Kind: types.KindInt},
			types.Column{Name: "ann_id", Kind: types.KindInt},
			types.Column{Name: "columns", Kind: types.KindString},
			types.Column{Name: "text", Kind: types.KindString},
		)
		var rows []*exec.Row
		for _, row := range db.anns.AnnotatedRows(tbl.Name()) {
			for _, ref := range db.anns.ForTuple(tbl.Name(), row) {
				a, err := db.anns.Get(ref.ID)
				if err != nil {
					return nil, err
				}
				rows = append(rows, &exec.Row{Tuple: types.Tuple{
					types.NewInt(int64(row)),
					types.NewInt(int64(ref.ID)),
					types.NewString(ref.Columns.String()),
					types.NewString(a.Preview(80)),
				}})
			}
		}
		return &Result{Schema: schema, Rows: rows}, nil
	case "TRACES":
		schema := types.NewSchema(
			types.Column{Name: "trace_id", Kind: types.KindString},
			types.Column{Name: "kind", Kind: types.KindString},
			types.Column{Name: "wall_us", Kind: types.KindInt},
			types.Column{Name: "slow", Kind: types.KindBool},
			types.Column{Name: "error", Kind: types.KindString},
			types.Column{Name: "stmt", Kind: types.KindString},
		)
		if db.tracer == nil {
			return &Result{Schema: schema, Message: "tracing disabled"}, nil
		}
		limit := s.Limit
		if limit <= 0 {
			limit = 20
		}
		var rows []*exec.Row
		for _, t := range db.tracer.Snapshot(limit) {
			rows = append(rows, &exec.Row{Tuple: types.Tuple{
				types.NewString(t.ID.String()),
				types.NewString(t.Kind),
				types.NewInt(t.Dur.Microseconds()),
				types.NewBool(t.Slow),
				types.NewString(t.Err),
				types.NewString(t.Statement),
			}})
		}
		return &Result{Schema: schema, Rows: rows}, nil
	case "TRACE":
		schema := types.NewSchema(types.Column{Name: "trace", Kind: types.KindString})
		if db.tracer == nil {
			return &Result{Schema: schema, Message: "tracing disabled"}, nil
		}
		id, err := trace.ParseID(s.TraceID)
		if err != nil {
			return nil, err
		}
		t, ok := db.tracer.Get(id)
		if !ok {
			return nil, fmt.Errorf("engine: trace %s not found (evicted or never retained)", id)
		}
		var rows []*exec.Row
		for _, line := range trace.RenderTree(t) {
			rows = append(rows, &exec.Row{Tuple: types.Tuple{types.NewString(line)}})
		}
		return &Result{Schema: schema, Rows: rows}, nil
	case "INTEGRITY":
		rep := db.IntegrityReport()
		quarantined := make([]string, len(rep.Quarantined))
		for i, pid := range rep.Quarantined {
			quarantined[i] = fmt.Sprintf("%d", pid)
		}
		return &Result{
			Schema: integritySchema(),
			Rows:   integrityRows(rep.Faults),
			Message: fmt.Sprintf("%d sweep(s), %d page(s) scanned, %d checksum failure(s), %d repair(s), %d quarantined [%s]",
				rep.Sweeps, rep.PagesScanned, rep.ChecksumFailures, rep.Repairs,
				len(rep.Quarantined), strings.Join(quarantined, ", ")),
			Count: len(rep.Faults),
		}, nil
	case "METRICS":
		schema := types.NewSchema(
			types.Column{Name: "metric", Kind: types.KindString},
			types.Column{Name: "type", Kind: types.KindString},
			types.Column{Name: "value", Kind: types.KindFloat},
		)
		reg := db.Metrics()
		if reg == nil {
			return &Result{Schema: schema, Message: "metrics disabled"}, nil
		}
		var rows []*exec.Row
		for _, sm := range reg.Samples() {
			if s.Pattern != "" && !exec.LikeMatch(sm.Name, s.Pattern) {
				continue
			}
			rows = append(rows, &exec.Row{Tuple: types.Tuple{
				types.NewString(sm.Name),
				types.NewString(sm.Type),
				types.NewFloat(sm.Value),
			}})
		}
		return &Result{Schema: schema, Rows: rows}, nil
	default:
		return nil, fmt.Errorf("engine: unknown SHOW target %q", s.What)
	}
}
