// Package exec implements the summary-aware Volcano executor: compiled
// scalar expressions and the extended query operators (scan, filter,
// project, joins, grouping/aggregation, distinct, sort, limit) that
// manipulate and propagate annotation summaries through the pipeline
// alongside the data tuples, as described in Section 2.1 of the paper.
package exec

import (
	"fmt"
	"strings"

	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// evalCtx carries the evaluation state of one pipeline row: the data
// tuple and (for summary-based predicates) its summary envelope.
type evalCtx struct {
	tuple types.Tuple
	env   *summary.Envelope
}

// Compiled is an expression compiled against a fixed input schema: column
// references are resolved to positions and evaluation is allocation-light.
// Expressions compiled with CompileRow may additionally contain
// summary-based predicate terms (SUMMARY_COUNT and friends), which read
// the row's envelope.
type Compiled struct {
	eval       func(evalCtx) (types.Value, error)
	cols       []int // referenced input column positions, ascending, deduplicated
	src        sql.Expr
	hasSummary bool
}

// Eval evaluates the expression over a tuple of the compiled schema.
// Summary terms see an empty envelope; use EvalRow when they may occur.
func (c *Compiled) Eval(tu types.Tuple) (types.Value, error) {
	return c.eval(evalCtx{tuple: tu})
}

// EvalRow evaluates the expression over a full pipeline row, giving
// summary-based predicate terms access to the envelope.
func (c *Compiled) EvalRow(row *Row) (types.Value, error) {
	return c.eval(evalCtx{tuple: row.Tuple, env: row.Env})
}

// Cols returns the input columns the expression references.
func (c *Compiled) Cols() []int { return c.cols }

// HasSummaryTerms reports whether the expression reads summary envelopes.
func (c *Compiled) HasSummaryTerms() bool { return c.hasSummary }

// String returns the source expression text.
func (c *Compiled) String() string { return c.src.String() }

// Compile resolves and compiles expr against schema. Aggregate calls and
// summary-based predicate terms are rejected — the planner rewrites
// aggregates to internal columns and routes summary terms through
// CompileRow.
func Compile(expr sql.Expr, schema types.Schema) (*Compiled, error) {
	return compileExpr(expr, schema, false)
}

// CompileRow is Compile with summary-based predicate terms permitted; the
// result must be evaluated with EvalRow.
func CompileRow(expr sql.Expr, schema types.Schema) (*Compiled, error) {
	return compileExpr(expr, schema, true)
}

func compileExpr(expr sql.Expr, schema types.Schema, allowSummary bool) (*Compiled, error) {
	cc := &compiler{schema: schema, cols: map[int]bool{}, allowSummary: allowSummary}
	eval, err := cc.compile(expr)
	if err != nil {
		return nil, err
	}
	cols := make([]int, 0, len(cc.cols))
	for i := 0; i < schema.Len(); i++ {
		if cc.cols[i] {
			cols = append(cols, i)
		}
	}
	return &Compiled{eval: eval, cols: cols, src: expr, hasSummary: cc.hasSummary}, nil
}

type evalFunc func(evalCtx) (types.Value, error)

// compiler tracks state across the recursive compilation.
type compiler struct {
	schema       types.Schema
	cols         map[int]bool
	allowSummary bool
	hasSummary   bool
}

func (cc *compiler) compile(expr sql.Expr) (evalFunc, error) {
	schema := cc.schema
	cols := cc.cols
	switch e := expr.(type) {
	case *sql.Literal:
		v := e.Val
		return func(evalCtx) (types.Value, error) { return v, nil }, nil
	case *sql.ColRef:
		ix, err := schema.ColumnIndex(e.Name)
		if err != nil {
			return nil, err
		}
		cols[ix] = true
		return func(c evalCtx) (types.Value, error) { return c.tuple[ix], nil }, nil
	case *sql.SummaryCall:
		if !cc.allowSummary {
			return nil, fmt.Errorf("exec: %s not allowed in this context", e.Func)
		}
		cc.hasSummary = true
		return compileSummaryCall(e)
	case *sql.UnaryExpr:
		x, err := cc.compile(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "NOT":
			return func(c evalCtx) (types.Value, error) {
				v, err := x(c)
				if err != nil || v.IsNull() {
					return v, err
				}
				if v.Kind() != types.KindBool {
					return types.Value{}, fmt.Errorf("exec: NOT over %s", v.Kind())
				}
				return types.NewBool(!v.Bool()), nil
			}, nil
		case "-":
			return func(c evalCtx) (types.Value, error) {
				v, err := x(c)
				if err != nil || v.IsNull() {
					return v, err
				}
				switch v.Kind() {
				case types.KindInt:
					return types.NewInt(-v.Int()), nil
				case types.KindFloat:
					return types.NewFloat(-v.Float()), nil
				default:
					return types.Value{}, fmt.Errorf("exec: unary minus over %s", v.Kind())
				}
			}, nil
		default:
			return nil, fmt.Errorf("exec: unknown unary operator %q", e.Op)
		}
	case *sql.IsNullExpr:
		x, err := cc.compile(e.X)
		if err != nil {
			return nil, err
		}
		neg := e.Negate
		return func(c evalCtx) (types.Value, error) {
			v, err := x(c)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(v.IsNull() != neg), nil
		}, nil
	case *sql.InExpr:
		x, err := cc.compile(e.X)
		if err != nil {
			return nil, err
		}
		items := make([]evalFunc, len(e.List))
		for i, it := range e.List {
			f, err := cc.compile(it)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		negate := e.Negate
		return func(c evalCtx) (types.Value, error) {
			xv, err := x(c)
			if err != nil {
				return types.Value{}, err
			}
			if xv.IsNull() {
				return types.Null(), nil
			}
			sawNull := false
			for _, f := range items {
				iv, err := f(c)
				if err != nil {
					return types.Value{}, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if comparableKinds(xv.Kind(), iv.Kind()) && types.Equal(xv, iv) {
					return types.NewBool(!negate), nil
				}
			}
			if sawNull {
				return types.Null(), nil // SQL: no match but NULL present
			}
			return types.NewBool(negate), nil
		}, nil
	case *sql.BetweenExpr:
		x, err := cc.compile(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := cc.compile(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := cc.compile(e.Hi)
		if err != nil {
			return nil, err
		}
		negate := e.Negate
		return func(c evalCtx) (types.Value, error) {
			xv, err := x(c)
			if err != nil {
				return types.Value{}, err
			}
			lv, err := lo(c)
			if err != nil {
				return types.Value{}, err
			}
			hv, err := hi(c)
			if err != nil {
				return types.Value{}, err
			}
			if xv.IsNull() || lv.IsNull() || hv.IsNull() {
				return types.Null(), nil
			}
			if !comparableKinds(xv.Kind(), lv.Kind()) || !comparableKinds(xv.Kind(), hv.Kind()) {
				return types.Value{}, fmt.Errorf("exec: BETWEEN over incompatible types")
			}
			in := types.Compare(xv, lv) >= 0 && types.Compare(xv, hv) <= 0
			return types.NewBool(in != negate), nil
		}, nil
	case *sql.BinaryExpr:
		l, err := cc.compile(e.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.compile(e.R)
		if err != nil {
			return nil, err
		}
		return compileBinary(e.Op, l, r)
	case *sql.FuncCall:
		return nil, fmt.Errorf("exec: aggregate %s not allowed in a scalar context", e.Name)
	case *sql.Param:
		return nil, fmt.Errorf("exec: parameter $%d is unbound; supply a value via EXECUTE ... USING or client-side args", e.Index)
	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", expr)
	}
}

// compileSummaryCall builds the evaluator of one summary-based predicate
// term. A tuple without the named object yields 0 — unannotated tuples
// simply have zero of everything.
func compileSummaryCall(e *sql.SummaryCall) (evalFunc, error) {
	instance := e.Instance
	label := e.Label
	switch e.Func {
	case "SUMMARY_TOTAL":
		return func(c evalCtx) (types.Value, error) {
			if c.env == nil {
				return types.NewInt(0), nil
			}
			obj := c.env.Object(instance)
			if obj == nil {
				return types.NewInt(0), nil
			}
			return types.NewInt(int64(obj.Len())), nil
		}, nil
	case "SUMMARY_GROUPS":
		return func(c evalCtx) (types.Value, error) {
			if c.env == nil {
				return types.NewInt(0), nil
			}
			obj := c.env.Object(instance)
			if obj == nil {
				return types.NewInt(0), nil
			}
			if g, ok := obj.(interface{ Groups() int }); ok {
				return types.NewInt(int64(g.Groups())), nil
			}
			return types.Value{}, fmt.Errorf("exec: SUMMARY_GROUPS over non-cluster instance %q", instance)
		}, nil
	case "SUMMARY_COUNT":
		return func(c evalCtx) (types.Value, error) {
			if c.env == nil {
				return types.NewInt(0), nil
			}
			obj := c.env.Object(instance)
			if obj == nil {
				return types.NewInt(0), nil
			}
			cls, ok := obj.(interface {
				LabelCount(int) int
				Instance() *summary.Instance
			})
			if !ok {
				return types.Value{}, fmt.Errorf("exec: SUMMARY_COUNT over non-classifier instance %q", instance)
			}
			li := cls.Instance().Classifier.LabelIndex(label)
			if li < 0 {
				return types.Value{}, fmt.Errorf("exec: instance %q has no label %q", instance, label)
			}
			return types.NewInt(int64(cls.LabelCount(li))), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown summary function %q", e.Func)
	}
}

func compileBinary(op string, l, r evalFunc) (evalFunc, error) {
	switch op {
	case "AND":
		return func(tu evalCtx) (types.Value, error) {
			a, err := l(tu)
			if err != nil {
				return types.Value{}, err
			}
			// Kleene logic: false AND x = false even for NULL x.
			if a.Kind() == types.KindBool && !a.Bool() {
				return types.NewBool(false), nil
			}
			b, err := r(tu)
			if err != nil {
				return types.Value{}, err
			}
			if b.Kind() == types.KindBool && !b.Bool() {
				return types.NewBool(false), nil
			}
			if a.IsNull() || b.IsNull() {
				return types.Null(), nil
			}
			if a.Kind() != types.KindBool || b.Kind() != types.KindBool {
				return types.Value{}, fmt.Errorf("exec: AND over non-boolean")
			}
			return types.NewBool(true), nil
		}, nil
	case "OR":
		return func(tu evalCtx) (types.Value, error) {
			a, err := l(tu)
			if err != nil {
				return types.Value{}, err
			}
			if a.Kind() == types.KindBool && a.Bool() {
				return types.NewBool(true), nil
			}
			b, err := r(tu)
			if err != nil {
				return types.Value{}, err
			}
			if b.Kind() == types.KindBool && b.Bool() {
				return types.NewBool(true), nil
			}
			if a.IsNull() || b.IsNull() {
				return types.Null(), nil
			}
			if a.Kind() != types.KindBool || b.Kind() != types.KindBool {
				return types.Value{}, fmt.Errorf("exec: OR over non-boolean")
			}
			return types.NewBool(false), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(tu evalCtx) (types.Value, error) {
			a, err := l(tu)
			if err != nil {
				return types.Value{}, err
			}
			b, err := r(tu)
			if err != nil {
				return types.Value{}, err
			}
			if a.IsNull() || b.IsNull() {
				return types.Null(), nil
			}
			if !comparableKinds(a.Kind(), b.Kind()) {
				return types.Value{}, fmt.Errorf("exec: cannot compare %s with %s", a.Kind(), b.Kind())
			}
			c := types.Compare(a, b)
			var res bool
			switch op {
			case "=":
				res = c == 0
			case "<>":
				res = c != 0
			case "<":
				res = c < 0
			case "<=":
				res = c <= 0
			case ">":
				res = c > 0
			case ">=":
				res = c >= 0
			}
			return types.NewBool(res), nil
		}, nil
	case "+", "-", "*", "/":
		return func(tu evalCtx) (types.Value, error) {
			a, err := l(tu)
			if err != nil {
				return types.Value{}, err
			}
			b, err := r(tu)
			if err != nil {
				return types.Value{}, err
			}
			if a.IsNull() || b.IsNull() {
				return types.Null(), nil
			}
			return arith(op, a, b)
		}, nil
	case "LIKE":
		return func(tu evalCtx) (types.Value, error) {
			a, err := l(tu)
			if err != nil {
				return types.Value{}, err
			}
			b, err := r(tu)
			if err != nil {
				return types.Value{}, err
			}
			if a.IsNull() || b.IsNull() {
				return types.Null(), nil
			}
			if a.Kind() != types.KindString || b.Kind() != types.KindString {
				return types.Value{}, fmt.Errorf("exec: LIKE requires strings")
			}
			return types.NewBool(likeMatch(a.Str(), b.Str())), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown binary operator %q", op)
	}
}

func comparableKinds(a, b types.Kind) bool {
	if a == b {
		return true
	}
	num := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
	return num(a) && num(b)
}

func arith(op string, a, b types.Value) (types.Value, error) {
	num := func(v types.Value) bool {
		return v.Kind() == types.KindInt || v.Kind() == types.KindFloat
	}
	if op == "+" && a.Kind() == types.KindString && b.Kind() == types.KindString {
		return types.NewString(a.Str() + b.Str()), nil // string concatenation
	}
	if !num(a) || !num(b) {
		return types.Value{}, fmt.Errorf("exec: %s over %s and %s", op, a.Kind(), b.Kind())
	}
	if a.Kind() == types.KindInt && b.Kind() == types.KindInt && op != "/" {
		x, y := a.Int(), b.Int()
		switch op {
		case "+":
			return types.NewInt(x + y), nil
		case "-":
			return types.NewInt(x - y), nil
		case "*":
			return types.NewInt(x * y), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case "+":
		return types.NewFloat(x + y), nil
	case "-":
		return types.NewFloat(x - y), nil
	case "*":
		return types.NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return types.Null(), nil // SQL-style: division by zero yields NULL here
		}
		// Integer division stays integral when exact, else float.
		if a.Kind() == types.KindInt && b.Kind() == types.KindInt && a.Int()%b.Int() == 0 {
			return types.NewInt(a.Int() / b.Int()), nil
		}
		return types.NewFloat(x / y), nil
	}
	return types.Value{}, fmt.Errorf("exec: unknown arithmetic operator %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-sensitive, via iterative backtracking.
func likeMatch(s, pattern string) bool {
	sr := []rune(s)
	pr := []rune(pattern)
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(sr) {
		switch {
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case pi < len(pr) && pr[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}

// SplitConjuncts flattens a WHERE expression into its AND-ed conjuncts,
// the unit of predicate pushdown.
func SplitConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []sql.Expr{e}
}

// SummaryInstancesIn returns the instance names referenced by summary
// terms in e.
func SummaryInstancesIn(e sql.Expr) []string {
	var out []string
	sql.Walk(e, func(e sql.Expr) bool {
		if c, ok := e.(*sql.SummaryCall); ok {
			out = append(out, c.Instance)
		}
		return true
	})
	return out
}

// ColumnLabel derives a display name for a select item: the alias when
// given, a bare/qualified column name for plain references, otherwise the
// expression text.
func ColumnLabel(item sql.SelectItem) (table, name string) {
	if item.Alias != "" {
		return "", item.Alias
	}
	if cr, ok := item.Expr.(*sql.ColRef); ok {
		return types.SplitQualified(cr.Name)
	}
	return "", strings.ToLower(item.Expr.String())
}
