package engine

import (
	"context"
	"fmt"
	"strings"

	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// Prepared statements and the engine plan cache.
//
// PREPARE parses a statement template once and registers it under a name;
// EXECUTE binds positional $n parameters into a clone of the template and
// dispatches the bound statement through the ordinary read/write paths.
// The registry is engine-local session state: it is never WAL-logged,
// survives no restart, and is legal on read-only replicas (a mutating
// template still fails at EXECUTE time, gated by the server).
//
// The plan cache (plan.Cache) is keyed on normalized SQL text and shared
// by two producers: EXECUTE keyed on the template text, and ad-hoc SELECTs
// keyed on their own text — so a repeated identical SELECT hits without
// being prepared. A hit skips lexing and parsing (the cached template is
// reused) and replays the memoized access-path choices instead of
// re-diving the B+trees. DDL and index create/drop invalidate the whole
// cache (invalidatePlanCache), on the statement path and on WAL replay —
// the latter is what keeps read replicas honest while they apply the
// primary's stream.

// preparedStmt is one registry entry.
type preparedStmt struct {
	name      string
	stmt      sql.Statement // immutable parsed template
	text      string        // template SQL text (after AS), verbatim
	key       string        // plan-cache key: NormalizeSQL(text)
	numParams int
}

// preparedLookup resolves a registered statement by (case-insensitive) name.
func (db *DB) preparedLookup(name string) (*preparedStmt, error) {
	db.preparedMu.RLock()
	ps, ok := db.prepared[strings.ToLower(name)]
	db.preparedMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown prepared statement %q", name)
	}
	return ps, nil
}

// PreparedTemplate returns the parsed template registered under name, for
// callers that need the statement kind without executing it (the replica
// server gates EXECUTE of mutating templates with it).
func (db *DB) PreparedTemplate(name string) (sql.Statement, bool) {
	db.preparedMu.RLock()
	ps, ok := db.prepared[strings.ToLower(name)]
	db.preparedMu.RUnlock()
	if !ok {
		return nil, false
	}
	return ps.stmt, true
}

// execPrepare registers s and warms the plan cache for SELECT templates.
func (db *DB) execPrepare(s *sql.Prepare) (*Result, error) {
	n, err := sql.NumParams(s.Stmt)
	if err != nil {
		return nil, err
	}
	ps := &preparedStmt{
		name:      strings.ToLower(s.Name),
		stmt:      s.Stmt,
		text:      s.Text,
		key:       plan.NormalizeSQL(s.Text),
		numParams: n,
	}
	db.preparedMu.Lock()
	if _, dup := db.prepared[ps.name]; dup {
		db.preparedMu.Unlock()
		return nil, fmt.Errorf("engine: prepared statement %q already exists (DEALLOCATE it first)", s.Name)
	}
	db.prepared[ps.name] = ps
	db.preparedMu.Unlock()
	if _, ok := s.Stmt.(*sql.Select); ok && db.planCache != nil && !db.planCache.Contains(ps.key) {
		db.planCache.Put(ps.key, &plan.CachedPlan{Stmt: s.Stmt, NumParams: n, Memo: plan.NewPathMemo()})
	}
	return &Result{Message: fmt.Sprintf("prepared statement %s registered (%d parameter(s))", s.Name, n)}, nil
}

// execDeallocate removes a registered statement. The plan-cache entry
// stays: it is keyed on text, not name, and remains valid for ad-hoc use.
func (db *DB) execDeallocate(s *sql.Deallocate) (*Result, error) {
	name := strings.ToLower(s.Name)
	db.preparedMu.Lock()
	_, ok := db.prepared[name]
	delete(db.prepared, name)
	db.preparedMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown prepared statement %q", s.Name)
	}
	return &Result{Message: fmt.Sprintf("prepared statement %s deallocated", s.Name)}, nil
}

// execExecute binds the EXECUTE arguments into the named template and
// dispatches the bound statement. SELECT templates route their planning
// through the plan cache under the template's text key, so repeated
// executions share one memo regardless of parameter values.
func (db *DB) execExecute(ctx context.Context, s *sql.Execute, so stmtOptions) (*Result, error) {
	ps, err := db.preparedLookup(s.Name)
	if err != nil {
		return nil, err
	}
	args, err := evalConstExprs(s.Args, "EXECUTE arguments")
	if err != nil {
		return nil, err
	}
	bound, err := sql.BindParams(ps.stmt, args)
	if err != nil {
		return nil, err
	}
	if _, ok := ps.stmt.(*sql.Select); ok && db.planCache != nil && so.planOpts == nil {
		if cp, hit := db.planCache.Get(ps.key); hit {
			so.memo = cp.Memo
			so.planCacheAttr = "hit"
		} else {
			memo := plan.NewPathMemo()
			db.planCache.Put(ps.key, &plan.CachedPlan{Stmt: ps.stmt, NumParams: ps.numParams, Memo: memo})
			so.memo = memo
			so.planCacheAttr = "miss"
		}
	}
	// The bound statement's rendering (parameters inlined as literals) is
	// the re-executable text: zoom-in cache misses re-run it verbatim,
	// which the template text with its $n placeholders could not support.
	return db.dispatch(ctx, bound, bound.String(), so)
}

// cachedStatement consults the plan cache for an ad-hoc statement text,
// returning the cached template on a hit. Only parameterless SELECTs are
// ever cached, so the probe is skipped (no miss counted) for texts that
// cannot hit. Ablated statements (WithPlanOptions) bypass the cache both
// ways.
func (db *DB) cachedStatement(so *stmtOptions, sqlText string) (sql.Statement, bool) {
	if db.planCache == nil || so.planOpts != nil || !looksLikeSelect(sqlText) {
		return nil, false
	}
	cp, ok := db.planCache.Get(plan.NormalizeSQL(sqlText))
	if !ok || cp.NumParams != 0 {
		return nil, false
	}
	so.memo = cp.Memo
	so.planCacheAttr = "hit"
	return cp.Stmt, true
}

// cacheStatement admits a freshly parsed ad-hoc SELECT to the plan cache
// and arms the statement's memo so this first execution records its
// access-path choices.
func (db *DB) cacheStatement(so *stmtOptions, sqlText string, stmt sql.Statement) {
	if db.planCache == nil || so.planOpts != nil {
		return
	}
	if _, ok := stmt.(*sql.Select); !ok {
		return
	}
	if n, err := sql.NumParams(stmt); err != nil || n != 0 {
		return
	}
	memo := plan.NewPathMemo()
	db.planCache.Put(plan.NormalizeSQL(sqlText), &plan.CachedPlan{Stmt: stmt, Memo: memo})
	so.memo = memo
	so.planCacheAttr = "miss"
}

// invalidatePlanCache drops every cached plan. Called under the exclusive
// statement lock by DDL and index create/drop, and by WAL replay of the
// same record types (replicas apply those records while serving reads).
func (db *DB) invalidatePlanCache() {
	if db.planCache != nil {
		db.planCache.Invalidate()
	}
}

// PlanCacheStats snapshots the plan cache counters (zero stats when the
// cache is disabled).
func (db *DB) PlanCacheStats() plan.CacheStats {
	if db.planCache == nil {
		return plan.CacheStats{}
	}
	return db.planCache.Stats()
}

// looksLikeSelect reports whether sqlText can only be a SELECT — the one
// ad-hoc statement kind the plan cache stores — so non-SELECT traffic
// never probes the cache and never inflates its miss counter.
func looksLikeSelect(sqlText string) bool {
	s := strings.TrimLeft(sqlText, " \t\r\n")
	if len(s) < 6 {
		return false
	}
	return strings.EqualFold(s[:6], "select")
}

// evalConstExprs evaluates a list of constant expressions (no column
// references) to values; what names the error context for the caller.
func evalConstExprs(list []sql.Expr, what string) ([]types.Value, error) {
	empty := types.Schema{}
	out := make([]types.Value, len(list))
	for i, e := range list {
		c, err := exec.Compile(e, empty)
		if err != nil {
			return nil, fmt.Errorf("engine: %s must be constants: %w", what, err)
		}
		v, err := c.Eval(nil)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
