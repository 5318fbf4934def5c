// Package plan builds summary-aware physical plans from parsed SELECT
// statements: predicate pushdown, index-scan selection, left-deep hash
// joins, grouping/aggregation, and — central to the paper — projection
// pushdown that curates the annotation summaries of each input relation
// down to the columns still needed downstream *before* any merge operation.
// Theorems 1 and 2 of the companion paper prove that this curate-before-
// merge discipline makes summary propagation identical across equivalent
// plans; Options.DisableProjectionPushdown exists so benchmarks and tests
// can demonstrate the theorem by violating it.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
)

// Options tune planning, mostly for experiments and ablations.
type Options struct {
	// DisableProjectionPushdown keeps full tuples (and full summary
	// envelopes) until the final projection, violating curate-before-merge.
	DisableProjectionPushdown bool
	// DisableIndexScan forces full scans even when an index matches.
	DisableIndexScan bool
	// Trace, when set, wraps every pipeline stage with a logging operator
	// so intermediate tuples and their summary objects can be visualized —
	// the demonstration's "under-the-hood execution" feature (Figure 5).
	// The entries land in the per-statement sink owned by the ExecContext
	// the plan is executed under.
	Trace bool
	// Parallelism is ignored: every scan runs inline on the statement's
	// goroutine. It remains only because the benchmark's traced pass still
	// sets it; it goes with the next change to the benchmark.
	Parallelism int
	// Counters, when set, receives planning-decision counts (plans built,
	// access paths chosen). Shared across planner instances; safe for
	// concurrent use.
	Counters *Counters
	// Span, when set, is the statement's lifecycle plan span: the planner
	// records its access-path decisions and cost estimates on it as
	// attributes (one set per base relation). Per-statement, never shared.
	Span *trace.SpanHandle
	// Memo, when set, is the cached statement's access-path memo
	// (cache.go): recorded decisions are replayed instead of re-costed,
	// and first-time decisions are recorded for later executions. Shared
	// across executions of one cached statement; safe for concurrent use.
	Memo *PathMemo
}

// Counters are cumulative planning-decision counts, incremented by every
// planner sharing them. All fields are atomic; a nil *Counters disables
// counting.
type Counters struct {
	// Plans is the number of SELECT plans built.
	Plans atomic.Int64
	// FullScans, IndexScans, and IndexRangeScans count access-path choices,
	// one per base relation planned.
	FullScans       atomic.Int64
	IndexScans      atomic.Int64
	IndexRangeScans atomic.Int64
}

// Planner compiles SELECT statements into operator trees.
type Planner struct {
	cat  *catalog.Catalog
	opts Options
}

// New creates a planner over the catalog. envs is ignored: every scan
// reads the envelopes from its table's row slots. It remains only because
// the benchmark's traced pass still passes it; it goes with the next
// change to the benchmark.
func New(cat *catalog.Catalog, envs exec.EnvelopeSource, opts Options) *Planner {
	return &Planner{cat: cat, opts: opts}
}

// relation is one FROM/JOIN entry during planning.
type relation struct {
	ref    sql.TableRef
	table  *catalog.Table
	schema types.Schema // aliased
	op     exec.Operator
}

// PlanSelect builds the physical plan for s.
func (p *Planner) PlanSelect(s *sql.Select) (exec.Operator, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("plan: query needs a FROM clause")
	}
	if c := p.opts.Counters; c != nil {
		c.Plans.Add(1)
	}
	// Resolve relations (FROM entries then JOIN entries).
	var rels []*relation
	seen := map[string]bool{}
	addRel := func(ref sql.TableRef) error {
		tbl, err := p.cat.Table(ref.Name)
		if err != nil {
			return err
		}
		alias := strings.ToLower(ref.EffectiveAlias())
		if seen[alias] {
			return fmt.Errorf("plan: duplicate relation alias %q", ref.EffectiveAlias())
		}
		seen[alias] = true
		rels = append(rels, &relation{
			ref:    ref,
			table:  tbl,
			schema: tbl.Schema().WithTable(ref.EffectiveAlias()),
		})
		return nil
	}
	for _, ref := range s.From {
		if err := addRel(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range s.Joins {
		if err := addRel(j.Ref); err != nil {
			return nil, err
		}
	}

	// Gather predicates: WHERE conjuncts plus JOIN ON conjuncts.
	// Summary-based conjuncts (§2.1) are routed separately: they evaluate
	// against summary envelopes, never participate in index selection or
	// join-key extraction, and relations they touch keep their full column
	// set so the predicate observes the stored summaries.
	var preds, summaryPreds []sql.Expr
	for _, e := range append(exec.SplitConjuncts(s.Where), joinConjuncts(s)...) {
		if exec.HasSummaryCall(e) {
			summaryPreds = append(summaryPreds, e)
		} else {
			preds = append(preds, e)
		}
	}

	// Full combined schema, for validation of multi-relation expressions.
	combined := types.Schema{}
	for _, r := range rels {
		combined = combined.Concat(r.schema)
	}

	// Expand stars and collect aggregates before computing needed columns.
	items, err := expandStars(s.Items, rels, combined)
	if err != nil {
		return nil, err
	}
	aggs := collectAggregates(items, s.Having)
	hasAgg := len(aggs) > 0 || len(s.GroupBy) > 0
	if hasAgg {
		if err := validateGrouping(items, s.GroupBy); err != nil {
			return nil, err
		}
	}

	// The predicates no access path absorbs. An absorbed one reads the
	// tuple before its scan projects it, so its columns are not needed
	// above the scan.
	remaining := make([]sql.Expr, 0, len(preds))
	for _, e := range preds {
		if !predConsumed(e, rels) {
			remaining = append(remaining, e)
		}
	}
	// Needed columns per relation: everything referenced above the scans.
	needed, err := p.neededColumns(rels, combined, items, aggs, remaining, s)
	if err != nil {
		return nil, err
	}

	// Build per-relation access paths with pushed-down single-relation
	// predicates and (unless disabled) projection pushdown for
	// curate-before-merge. Summary predicates bound to one relation apply
	// above its scan, before any projection, so they see the full stored
	// summaries.
	remainingSummary := make([]sql.Expr, 0, len(summaryPreds))
	for i, r := range rels {
		scan, err := p.accessPath(r, preds)
		if err != nil {
			return nil, err
		}
		r.op = scan
		pushedSummary := false
		for _, e := range summaryPreds {
			if !p.summaryPredBindsTo(e, r, rels) {
				continue
			}
			c, err := exec.CompileRow(e, r.schema)
			if err != nil {
				return nil, err
			}
			r.op = exec.NewFilter(r.op, c)
			pushedSummary = true
		}
		// A summary filter suppresses the push-down, so the scan is still
		// the relation's whole pipeline whenever a projection is pushed.
		if !p.opts.DisableProjectionPushdown && !pushedSummary {
			if r.schema, err = pushProjection(scan, r.schema, needed[i]); err != nil {
				return nil, err
			}
		}
		r.op = p.trace(r.op, "scan+curate("+r.ref.EffectiveAlias()+")")
	}
	for _, e := range summaryPreds {
		bound := false
		for _, r := range rels {
			if p.summaryPredBindsTo(e, r, rels) {
				bound = true
				break
			}
		}
		if !bound {
			remainingSummary = append(remainingSummary, e)
		}
	}
	// Left-deep joins in declaration order.
	cur := rels[0].op
	curSchema := rels[0].schema
	for _, r := range rels[1:] {
		joinSchema := curSchema.Concat(r.schema)
		var eqLeft, eqRight []*exec.Compiled
		var leftExprs, leftover []sql.Expr
		for _, e := range remaining {
			if !exec.ReferencesOnly(e, joinSchema) {
				leftover = append(leftover, e)
				continue
			}
			l, rKey, ok := equiJoinKeys(e, curSchema, r.schema)
			if ok {
				lc, err := exec.Compile(l, curSchema)
				if err != nil {
					return nil, err
				}
				rc, err := exec.Compile(rKey, r.schema)
				if err != nil {
					return nil, err
				}
				eqLeft = append(eqLeft, lc)
				eqRight = append(eqRight, rc)
				leftExprs = append(leftExprs, l)
				continue
			}
			leftover = append(leftover, e)
		}
		if len(eqLeft) > 0 {
			join := exec.NewHashJoin(cur, r.op, eqLeft, eqRight)
			if scan, ok := cur.(*exec.Scan); ok {
				p.keyProbe(join, scan, rels[0], leftExprs)
			}
			cur = p.trace(join, "join("+r.ref.EffectiveAlias()+")")
		} else {
			// Collect any resolvable non-equi condition into the NL join.
			var cond sql.Expr
			var still []sql.Expr
			for _, e := range leftover {
				if exec.ReferencesOnly(e, joinSchema) {
					cond = andExpr(cond, e)
				} else {
					still = append(still, e)
				}
			}
			leftover = still
			var compiled *exec.Compiled
			if cond != nil {
				var err error
				compiled, err = exec.Compile(cond, joinSchema)
				if err != nil {
					return nil, err
				}
			}
			cur = p.trace(exec.NewNestedLoopJoin(cur, r.op, compiled),
				"nljoin("+r.ref.EffectiveAlias()+")")
		}
		curSchema = joinSchema
		// Apply now-resolvable leftover predicates as filters.
		var still []sql.Expr
		for _, e := range leftover {
			if exec.ReferencesOnly(e, curSchema) {
				c, err := exec.Compile(e, curSchema)
				if err != nil {
					return nil, err
				}
				cur = exec.NewFilter(cur, c)
			} else {
				still = append(still, e)
			}
		}
		remaining = still
	}
	if len(remaining) > 0 {
		return nil, fmt.Errorf("plan: unresolved predicate %s", remaining[0])
	}
	// Multi-relation (or unbound) summary predicates apply to the joined
	// rows, observing the merged summaries.
	for _, e := range remainingSummary {
		c, err := exec.CompileRow(e, curSchema)
		if err != nil {
			return nil, err
		}
		cur = exec.NewFilter(cur, c)
	}

	// Aggregation and final projection.
	if hasAgg {
		cur, err = p.planAggregate(cur, curSchema, items, s, aggs)
		if err != nil {
			return nil, err
		}
		cur = p.trace(cur, "aggregate+project")
	} else {
		cur, err = p.planProjection(cur, curSchema, items)
		if err != nil {
			return nil, err
		}
		cur = p.trace(cur, "project")
	}
	if s.Distinct {
		cur = p.trace(exec.NewDistinct(cur), "distinct")
	}
	if len(s.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(s.OrderBy))
		for i, o := range s.OrderBy {
			// CompileRow: summary-based ordering (§2.1) reads the
			// summaries as reported in the output.
			c, err := exec.CompileRow(o.Expr, cur.Schema())
			if err != nil {
				return nil, fmt.Errorf("plan: ORDER BY must reference output columns: %w", err)
			}
			keys[i] = exec.SortKey{Expr: c, Desc: o.Desc}
		}
		cur = exec.NewSort(cur, keys)
	}
	if s.Limit >= 0 {
		cur = exec.NewLimit(cur, s.Limit)
	}
	return cur, nil
}

// accessPath builds r's scan: the cheapest row source (cost.go) with the
// conjunction of r's single-relation predicates absorbed into it.
func (p *Planner) accessPath(r *relation, preds []sql.Expr) (*exec.Scan, error) {
	var local []sql.Expr
	var all sql.Expr
	for _, e := range preds {
		if bindsTo(e, r.schema) {
			local = append(local, e)
			all = andExpr(all, e)
		}
	}
	var pred *exec.Compiled
	if all != nil {
		var err error
		if pred, err = exec.Compile(all, r.schema); err != nil {
			return nil, err
		}
	}
	src, est := p.chooseAccessPath(r, local, "."+strings.ToLower(r.ref.EffectiveAlias()))
	if c := p.opts.Counters; c != nil {
		switch src.Path() {
		case "index":
			c.IndexScans.Add(1)
		case "index_range":
			c.IndexRangeScans.Add(1)
		default:
			c.FullScans.Add(1)
		}
	}
	scan := exec.NewScan(r.table, r.ref.EffectiveAlias(), src, pred)
	scan.SetEstimatedRows(est)
	return scan, nil
}

// keyProbe lets join read its probe side, scan over relation r, through
// an index: the first left key that is a plain reference to an indexed
// column of r keys the scan, up to probeKeyLimit distinct build keys.
// Rows, summaries and their order stay the full scan's.
func (p *Planner) keyProbe(join *exec.HashJoin, scan *exec.Scan, r *relation, leftKeys []sql.Expr) {
	if p.opts.DisableIndexScan {
		return
	}
	for i, e := range leftKeys {
		cr, ok := e.(*sql.ColRef)
		if !ok {
			continue
		}
		ix, err := r.schema.ColumnIndex(cr.Name)
		if err != nil {
			continue
		}
		if col := r.schema.Columns[ix].Name; r.table.Index(col) != nil {
			join.KeyProbe(scan, i, col, probeKeyLimit(r.table.Stats()))
			return
		}
	}
}

// pushProjection narrows scan's output to the needed column ordinals of
// its relation schema, curating summary envelopes before any merge (the
// theorem discipline), and returns the relation's schema afterwards. All
// columns are kept when the relation is fully referenced.
func pushProjection(scan *exec.Scan, schema types.Schema, needed map[int]bool) (types.Schema, error) {
	if len(needed) >= schema.Len() {
		return schema, nil
	}
	idxs := make([]int, 0, len(needed))
	for i := range needed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	if len(idxs) == 0 {
		// A relation no one references (pure cartesian filter) keeps its
		// first column so the tuple is non-empty.
		idxs = []int{0}
	}
	items := make([]exec.ProjectItem, len(idxs))
	for j, ix := range idxs {
		col := schema.Columns[ix]
		c, err := exec.Compile(&sql.ColRef{Name: col.QualifiedName()}, schema)
		if err != nil {
			return types.Schema{}, err
		}
		items[j] = exec.ProjectItem{Expr: c, Col: col}
	}
	scan.AbsorbProject(items)
	return scan.Schema(), nil
}

// neededColumns computes, per relation, the set of column ordinals
// referenced above the scans (select items, the predicates preds no scan
// absorbs, grouping, having, order by). A COUNT(*) among aggs needs every
// column: it aggregates whole tuples, so every input column's annotations
// follow it (exec.NewGroupAggregate), and none may be curated away below.
func (p *Planner) neededColumns(rels []*relation, combined types.Schema,
	items []sql.SelectItem, aggs []*sql.FuncCall, preds []sql.Expr, s *sql.Select) ([]map[int]bool, error) {
	countStar := slices.ContainsFunc(aggs, func(a *sql.FuncCall) bool { return a.Star })
	needed := make([]map[int]bool, len(rels))
	for i, r := range rels {
		needed[i] = map[int]bool{}
		for ix := range r.schema.Columns {
			if countStar {
				needed[i][ix] = true
			}
		}
	}
	// mark marks the columns e reads. A strict reference that resolves in
	// no relation is reported against the combined schema, for a good
	// error; HAVING and ORDER BY may name output aliases, which resolve
	// later (the aggregation rewrite and the sort validate them).
	var err error
	mark := func(e sql.Expr, strict bool) {
		sql.Walk(e, func(e sql.Expr) bool {
			c, ok := e.(*sql.ColRef)
			if !ok || err != nil {
				return err == nil
			}
			for i, r := range rels {
				if ix, rerr := r.schema.ColumnIndex(c.Name); rerr == nil {
					needed[i][ix] = true
					return true
				}
			}
			if strict {
				_, err = combined.ColumnIndex(c.Name)
			}
			return err == nil
		})
	}
	for _, it := range items {
		mark(it.Expr, true)
	}
	for _, e := range preds {
		mark(e, true)
	}
	for _, g := range s.GroupBy {
		mark(g, true)
	}
	mark(s.Having, false)
	for _, o := range s.OrderBy {
		mark(o.Expr, false)
	}
	return needed, err
}

// predConsumed reports whether e was a single-relation predicate (it was
// applied inside some access path).
func predConsumed(e sql.Expr, rels []*relation) bool {
	for _, r := range rels {
		if bindsTo(e, r.schema) {
			return true
		}
	}
	return false
}

// bindsTo reports whether e reads at least one column and every column it
// reads resolves in schema (so constant predicates don't bind to arbitrary
// relations).
func bindsTo(e sql.Expr, schema types.Schema) bool {
	return exec.ReferencesOnly(e, schema) && len(exec.ReferencedColumns(e)) > 0
}

// equiJoinKeys recognizes `l = r` with one side resolving in left and the
// other in right.
func equiJoinKeys(e sql.Expr, left, right types.Schema) (sql.Expr, sql.Expr, bool) {
	b, ok := e.(*sql.BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	if bindsTo(b.L, left) && bindsTo(b.R, right) {
		return b.L, b.R, true
	}
	if bindsTo(b.R, left) && bindsTo(b.L, right) {
		return b.R, b.L, true
	}
	return nil, nil, false
}

// valueRange is a one-column range extracted from a predicate.
type valueRange struct {
	col          string
	lo, hi       *types.Value
	loInc, hiInc bool
}

// constRange recognizes `col OP literal` for OP in {<, <=, >, >=} (either
// orientation) and non-negated `col BETWEEN lo AND hi` against schema.
func constRange(e sql.Expr, schema types.Schema) (valueRange, bool) {
	switch x := e.(type) {
	case *sql.BetweenExpr:
		if x.Negate {
			return valueRange{}, false
		}
		cr, ok := x.X.(*sql.ColRef)
		if !ok || !schema.HasColumn(cr.Name) {
			return valueRange{}, false
		}
		lo, okLo := x.Lo.(*sql.Literal)
		hi, okHi := x.Hi.(*sql.Literal)
		if !okLo || !okHi {
			return valueRange{}, false
		}
		return valueRange{col: cr.Name, lo: &lo.Val, hi: &hi.Val, loInc: true, hiInc: true}, true
	case *sql.BinaryExpr:
		op := x.Op
		var col string
		var lit types.Value
		if cr, ok := x.L.(*sql.ColRef); ok {
			l, ok2 := x.R.(*sql.Literal)
			if !ok2 || !schema.HasColumn(cr.Name) {
				return valueRange{}, false
			}
			col, lit = cr.Name, l.Val
		} else if cr, ok := x.R.(*sql.ColRef); ok {
			l, ok2 := x.L.(*sql.Literal)
			if !ok2 || !schema.HasColumn(cr.Name) {
				return valueRange{}, false
			}
			col, lit = cr.Name, l.Val
			// Flip the operator: `lit OP col` ≡ `col flip(OP) lit`.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		} else {
			return valueRange{}, false
		}
		switch op {
		case "<":
			return valueRange{col: col, hi: &lit}, true
		case "<=":
			return valueRange{col: col, hi: &lit, hiInc: true}, true
		case ">":
			return valueRange{col: col, lo: &lit}, true
		case ">=":
			return valueRange{col: col, lo: &lit, loInc: true}, true
		}
	}
	return valueRange{}, false
}

// constEquality recognizes `col = literal` (either side) against schema.
func constEquality(e sql.Expr, schema types.Schema) (string, types.Value, bool) {
	b, ok := e.(*sql.BinaryExpr)
	if !ok || b.Op != "=" {
		return "", types.Value{}, false
	}
	if cr, ok := b.L.(*sql.ColRef); ok {
		if lit, ok := b.R.(*sql.Literal); ok && schema.HasColumn(cr.Name) {
			return cr.Name, lit.Val, true
		}
	}
	if cr, ok := b.R.(*sql.ColRef); ok {
		if lit, ok := b.L.(*sql.Literal); ok && schema.HasColumn(cr.Name) {
			return cr.Name, lit.Val, true
		}
	}
	return "", types.Value{}, false
}

// joinConjuncts flattens every JOIN ON clause into conjuncts.
func joinConjuncts(s *sql.Select) []sql.Expr {
	var out []sql.Expr
	for _, j := range s.Joins {
		out = append(out, exec.SplitConjuncts(j.On)...)
	}
	return out
}

// summaryPredBindsTo reports whether summary conjunct e belongs above
// relation r's scan: every column reference resolves in r, and every
// referenced summary instance is linked to r's table. Predicates that bind
// to several relations are kept post-join instead.
func (p *Planner) summaryPredBindsTo(e sql.Expr, r *relation, rels []*relation) bool {
	if !exec.ReferencesOnly(e, r.schema) {
		return false
	}
	instances := exec.SummaryInstancesIn(e)
	if len(instances) == 0 {
		return false
	}
	for _, in := range instances {
		if !p.cat.IsLinked(in, r.table.Name()) {
			return false
		}
	}
	// If another relation also satisfies the binding (same instance linked
	// there and no distinguishing columns), the predicate is ambiguous and
	// stays post-join.
	for _, other := range rels {
		if other == r {
			continue
		}
		if exec.ReferencesOnly(e, other.schema) && len(exec.ReferencedColumns(e)) == 0 {
			allLinked := true
			for _, in := range instances {
				if !p.cat.IsLinked(in, other.table.Name()) {
					allLinked = false
					break
				}
			}
			if allLinked {
				return false
			}
		}
	}
	return true
}

// trace wraps op with a logging stage when tracing is enabled.
func (p *Planner) trace(op exec.Operator, stage string) exec.Operator {
	if !p.opts.Trace {
		return op
	}
	return exec.NewTrace(op, stage)
}

func andExpr(a, b sql.Expr) sql.Expr {
	if a == nil {
		return b
	}
	return &sql.BinaryExpr{Op: "AND", L: a, R: b}
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sql.SelectItem, rels []*relation, combined types.Schema) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, r := range rels {
			alias := r.ref.EffectiveAlias()
			if it.StarTable != "" && !strings.EqualFold(it.StarTable, alias) {
				continue
			}
			matched = true
			for _, col := range r.schema.Columns {
				out = append(out, sql.SelectItem{Expr: &sql.ColRef{Name: col.QualifiedName()}})
			}
		}
		if !matched {
			return nil, fmt.Errorf("plan: %s.* matches no relation", it.StarTable)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}
