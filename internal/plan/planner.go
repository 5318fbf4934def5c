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
	schema types.Schema // aliased; bound ordinals index it
	needed []bool       // the ordinals of schema read above the scan (bind)
	op     exec.Operator
	out    types.Schema // op's schema
}

// mark marks ordinal ord as read above r's scan.
func (r *relation) mark(ord int) {
	if r.needed == nil {
		r.needed = make([]bool, r.schema.Len())
	}
	r.needed[ord] = true
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

	// Bind every name once, over the star-expanded items and the WHERE
	// and JOIN ON conjuncts. Summary-based conjuncts (§2.1) evaluate
	// against summary envelopes, never participate in index selection or
	// join-key extraction, and relations they touch keep their full column
	// set so the predicate observes the stored summaries.
	items, err := expandStars(s.Items, rels)
	if err != nil {
		return nil, err
	}
	b, conj, err := bind(rels, items, append(exec.SplitConjuncts(s.Where), joinConjuncts(s)...), s)
	if err != nil {
		return nil, err
	}
	aggs := collectAggregates(b, items, s.Having)
	hasAgg := len(aggs) > 0 || len(s.GroupBy) > 0
	if hasAgg {
		if err := validateGrouping(b, items, s.GroupBy); err != nil {
			return nil, err
		}
	}
	// A COUNT(*) aggregates whole tuples, so every input column's
	// annotations follow it (exec.NewGroupAggregate) and none may be
	// curated away below it.
	if slices.ContainsFunc(aggs, func(a *sql.FuncCall) bool { return a.Star }) {
		for _, r := range rels {
			for ord := range r.schema.Columns {
				r.mark(ord)
			}
		}
	}

	// Build per-relation access paths with the conjuncts that read only
	// that relation absorbed and (unless disabled) projection pushdown for
	// curate-before-merge. Summary conjuncts bound to one relation apply
	// above its scan, before any projection, so they see the full stored
	// summaries.
	var remaining, remainingSummary []conjunct
	for _, c := range conj {
		switch {
		case c.summary && p.summaryHome(c, rels) < 0:
			remainingSummary = append(remainingSummary, c)
		case !c.summary && !c.scanned():
			remaining = append(remaining, c)
		}
	}
	for i, r := range rels {
		var local []sql.Expr
		for _, c := range conj {
			if !c.summary && c.rels == 1<<i {
				local = append(local, c.e)
			}
		}
		scan, err := p.accessPath(r, local)
		if err != nil {
			return nil, err
		}
		r.op, r.out = scan, r.schema
		pushedSummary := false
		for _, c := range conj {
			if !c.summary || p.summaryHome(c, rels) != i {
				continue
			}
			f, err := exec.CompileRow(c.e, r.schema)
			if err != nil {
				return nil, err
			}
			r.op = exec.NewFilter(r.op, f)
			pushedSummary = true
		}
		// A summary filter suppresses the push-down, so the scan is still
		// the relation's whole pipeline whenever a projection is pushed.
		if !p.opts.DisableProjectionPushdown && !pushedSummary {
			if r.out, err = pushProjection(scan, r.schema, r.needed); err != nil {
				return nil, err
			}
		}
		r.op = p.trace(r.op, "scan+curate("+r.ref.EffectiveAlias()+")")
	}
	// Left-deep joins in declaration order. A conjunct applies at the
	// first join whose inputs hold every relation it reads: as a hash-join
	// key when it equates a column expression of each side, otherwise as a
	// filter above the hash join or in the nested-loop join's condition.
	cur, curSchema := rels[0].op, rels[0].out
	joined := relSet(1)
	for i, r := range rels[1:] {
		right := relSet(1) << (i + 1)
		left := joined
		joined |= right
		joinSchema := curSchema.Concat(r.out)
		var eqLeft, eqRight []*exec.Compiled
		var leftExprs, filters []sql.Expr
		var later []conjunct
		for _, c := range remaining {
			if c.rels&^joined != 0 {
				later = append(later, c)
				continue
			}
			l, rKey, ok := equiJoinKeys(b, c.e, left, right)
			if !ok {
				filters = append(filters, c.e)
				continue
			}
			lc, err := exec.Compile(l, curSchema)
			if err != nil {
				return nil, err
			}
			rc, err := exec.Compile(rKey, r.out)
			if err != nil {
				return nil, err
			}
			eqLeft = append(eqLeft, lc)
			eqRight = append(eqRight, rc)
			leftExprs = append(leftExprs, l)
		}
		remaining = later
		if len(eqLeft) > 0 {
			join := exec.NewHashJoin(cur, r.op, eqLeft, eqRight)
			if scan, ok := cur.(*exec.Scan); ok {
				p.keyProbe(join, scan, b, leftExprs)
			}
			cur = p.trace(join, "join("+r.ref.EffectiveAlias()+")")
			for _, e := range filters {
				f, err := exec.Compile(e, joinSchema)
				if err != nil {
					return nil, err
				}
				cur = exec.NewFilter(cur, f)
			}
		} else {
			cond, err := compileAll(filters, joinSchema)
			if err != nil {
				return nil, err
			}
			cur = p.trace(exec.NewNestedLoopJoin(cur, r.op, cond), "nljoin("+r.ref.EffectiveAlias()+")")
		}
		curSchema = joinSchema
	}
	// What is left reads no relation (a constant conjunct of a
	// one-relation query), and the summary conjuncts no one scan takes
	// observe the merged summaries: both filter the joined rows.
	for _, c := range append(remaining, remainingSummary...) {
		f, err := exec.CompileRow(c.e, curSchema)
		if err != nil {
			return nil, err
		}
		cur = exec.NewFilter(cur, f)
	}

	// Aggregation and final projection.
	if hasAgg {
		cur, err = p.planAggregate(cur, curSchema, b, items, s, aggs)
		if err != nil {
			return nil, err
		}
		cur = p.trace(cur, "aggregate+project")
	} else {
		cur, err = p.planProjection(cur, b, items)
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
// conjunction of local, the predicates that read only r, absorbed into it.
func (p *Planner) accessPath(r *relation, local []sql.Expr) (*exec.Scan, error) {
	pred, err := compileAll(local, r.schema)
	if err != nil {
		return nil, err
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

// keyProbe lets join read its probe side, scan over rels[0], through an
// index: the first left key that is a plain reference to an indexed column
// keys the scan, up to probeKeyLimit distinct build keys. Rows, summaries
// and their order stay the full scan's.
func (p *Planner) keyProbe(join *exec.HashJoin, scan *exec.Scan, b *binding, leftKeys []sql.Expr) {
	if p.opts.DisableIndexScan {
		return
	}
	r := b.rels[0]
	for i, e := range leftKeys {
		cr, ok := e.(*sql.ColRef)
		if !ok {
			continue
		}
		if col, _ := b.column(cr); r.table.Index(col.Name) != nil {
			join.KeyProbe(scan, i, col.Name, probeKeyLimit(r.table.Stats()))
			return
		}
	}
}

// pushProjection narrows scan's output to the needed column ordinals of
// its relation schema, curating summary envelopes before any merge (the
// theorem discipline), and returns the relation's schema afterwards. All
// columns are kept when the relation is fully referenced.
func pushProjection(scan *exec.Scan, schema types.Schema, needed []bool) (types.Schema, error) {
	idxs := make([]int, 0, len(needed))
	for i, n := range needed {
		if n {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == schema.Len() {
		return schema, nil
	}
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

// equiJoinKeys recognizes `l = r` with one side reading only relations of
// left and the other only relations of right.
func equiJoinKeys(b *binding, e sql.Expr, left, right relSet) (sql.Expr, sql.Expr, bool) {
	x, ok := e.(*sql.BinaryExpr)
	if !ok || x.Op != "=" {
		return nil, nil, false
	}
	l, r := b.set(x.L), b.set(x.R)
	if within(l, left) && within(r, right) {
		return x.L, x.R, true
	}
	if within(r, left) && within(l, right) {
		return x.R, x.L, true
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
// orientation) and non-negated `col BETWEEN lo AND hi`.
func constRange(e sql.Expr) (valueRange, bool) {
	if x, ok := e.(*sql.BetweenExpr); ok {
		cr, okCol := x.X.(*sql.ColRef)
		lo, okLo := x.Lo.(*sql.Literal)
		hi, okHi := x.Hi.(*sql.Literal)
		if x.Negate || !okCol || !okLo || !okHi {
			return valueRange{}, false
		}
		return valueRange{col: cr.Name, lo: &lo.Val, hi: &hi.Val, loInc: true, hiInc: true}, true
	}
	col, op, lit, ok := colLiteral(e)
	switch {
	case !ok:
	case op == "<", op == "<=":
		return valueRange{col: col, hi: &lit, hiInc: op == "<="}, true
	case op == ">", op == ">=":
		return valueRange{col: col, lo: &lit, loInc: op == ">="}, true
	}
	return valueRange{}, false
}

// constEquality recognizes `col = literal` (either side).
func constEquality(e sql.Expr) (string, types.Value, bool) {
	col, op, lit, ok := colLiteral(e)
	return col, lit, ok && op == "="
}

// colLiteral recognizes a comparison of a column with a literal, either
// side, and returns the operator as read from the column: `1 < a` is
// `a > 1`.
func colLiteral(e sql.Expr) (col, op string, lit types.Value, ok bool) {
	x, ok := e.(*sql.BinaryExpr)
	if !ok {
		return "", "", types.Value{}, false
	}
	if cr, ok := x.L.(*sql.ColRef); ok {
		if l, ok := x.R.(*sql.Literal); ok {
			return cr.Name, x.Op, l.Val, true
		}
	}
	if cr, ok := x.R.(*sql.ColRef); ok {
		if l, ok := x.L.(*sql.Literal); ok {
			return cr.Name, flipped[x.Op], l.Val, true
		}
	}
	return "", "", types.Value{}, false
}

// flipped maps a comparison to the one that holds with its sides swapped.
var flipped = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// joinConjuncts flattens every JOIN ON clause into conjuncts.
func joinConjuncts(s *sql.Select) []sql.Expr {
	var out []sql.Expr
	for _, j := range s.Joins {
		out = append(out, exec.SplitConjuncts(j.On)...)
	}
	return out
}

// summaryHome returns the relation above whose scan summary conjunct c
// applies, or -1 when it applies to the joined rows instead: c must read
// no other relation's columns and name summary instances that are all
// linked to that relation's table. A conjunct that reads no column and
// whose instances are linked to two relations' tables is ambiguous.
func (p *Planner) summaryHome(c conjunct, rels []*relation) int {
	instances := exec.SummaryInstancesIn(c.e)
	if len(instances) == 0 {
		return -1
	}
	home := -1
	for i, r := range rels {
		if c.rels&^(1<<i) != 0 || slices.ContainsFunc(instances, func(in string) bool { return !p.cat.IsLinked(in, r.table.Name()) }) {
			continue
		}
		if home >= 0 {
			return -1
		}
		home = i
	}
	return home
}

// trace wraps op with a logging stage when tracing is enabled.
func (p *Planner) trace(op exec.Operator, stage string) exec.Operator {
	if !p.opts.Trace {
		return op
	}
	return exec.NewTrace(op, stage)
}

// compileAll compiles the conjunction of es against schema: nil for none.
func compileAll(es []sql.Expr, schema types.Schema) (*exec.Compiled, error) {
	if len(es) == 0 {
		return nil, nil
	}
	all := es[0]
	for _, e := range es[1:] {
		all = &sql.BinaryExpr{Op: "AND", L: all, R: e}
	}
	return exec.Compile(all, schema)
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sql.SelectItem, rels []*relation) ([]sql.SelectItem, error) {
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
