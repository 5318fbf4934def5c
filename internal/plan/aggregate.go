package plan

import (
	"fmt"
	"strings"

	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// collectAggregates finds the distinct aggregate calls (by canonical text)
// appearing in the select items and HAVING clause, in first-appearance
// order. An aggregate's argument is not searched.
func collectAggregates(items []sql.SelectItem, having sql.Expr) []*sql.FuncCall {
	var out []*sql.FuncCall
	seen := map[string]bool{}
	visit := func(e sql.Expr) bool {
		x, ok := e.(*sql.FuncCall)
		if !ok {
			return true
		}
		if key := canonical(x); !seen[key] {
			seen[key] = true
			out = append(out, x)
		}
		return false
	}
	for _, it := range items {
		sql.Walk(it.Expr, visit)
	}
	sql.Walk(having, visit)
	return out
}

func canonical(e sql.Expr) string { return strings.ToLower(e.String()) }

// validateGrouping enforces that every non-aggregate select item appears in
// the GROUP BY list (textually): a subexpression equal to a key or inside
// an aggregate is fine, a column reference anywhere else is not.
func validateGrouping(items []sql.SelectItem, groupBy []sql.Expr) error {
	keys := map[string]bool{}
	for _, g := range groupBy {
		keys[canonical(g)] = true
	}
	var err error
	for _, it := range items {
		sql.Walk(it.Expr, func(e sql.Expr) bool {
			if err != nil || keys[canonical(e)] {
				return false
			}
			switch x := e.(type) {
			case *sql.FuncCall:
				return false
			case *sql.ColRef:
				err = fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", x.Name)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// rewriteForGroups replaces group-key expressions and aggregate calls in e
// with references to the internal aggregation schema columns. The key
// test comes first, so a key that is itself a column or a call is found.
func rewriteForGroups(e sql.Expr, groupNames map[string]string, aggNames map[string]string) (sql.Expr, error) {
	return sql.Rewrite(e, func(e sql.Expr) (sql.Expr, bool, error) {
		if name, ok := groupNames[canonical(e)]; ok {
			return &sql.ColRef{Name: name}, true, nil
		}
		switch x := e.(type) {
		case *sql.ColRef:
			return nil, true, fmt.Errorf("plan: %s referenced outside GROUP BY and aggregates", x.Name)
		case *sql.FuncCall:
			if name, ok := aggNames[canonical(x)]; ok {
				return &sql.ColRef{Name: name}, true, nil
			}
			return nil, true, fmt.Errorf("plan: aggregate %s not computed", x)
		case *sql.SummaryCall, *sql.Param:
			return nil, true, fmt.Errorf("plan: unsupported expression %T under grouping", e)
		}
		return nil, false, nil
	})
}

// planAggregate builds GroupAggregate → HAVING filter → final projection.
func (p *Planner) planAggregate(input exec.Operator, inSchema types.Schema,
	items []sql.SelectItem, s *sql.Select, aggs []*sql.FuncCall) (exec.Operator, error) {
	// Compile group keys.
	keys := make([]*exec.Compiled, len(s.GroupBy))
	keyCols := make([]types.Column, len(s.GroupBy))
	groupNames := map[string]string{}
	for i, g := range s.GroupBy {
		c, err := exec.Compile(g, inSchema)
		if err != nil {
			return nil, err
		}
		keys[i] = c
		name := fmt.Sprintf("#g%d", i)
		keyCols[i] = types.Column{Name: name, Kind: inferKind(g, inSchema)}
		groupNames[canonical(g)] = name
	}
	// Compile aggregate specs.
	specs := make([]exec.AggSpec, len(aggs))
	aggCols := make([]types.Column, len(aggs))
	aggNames := map[string]string{}
	for i, a := range aggs {
		spec := exec.AggSpec{Func: a.Name}
		if a.Arg != nil {
			c, err := exec.Compile(a.Arg, inSchema)
			if err != nil {
				return nil, err
			}
			spec.Arg = c
		}
		specs[i] = spec
		name := fmt.Sprintf("#a%d", i)
		aggCols[i] = types.Column{Name: name, Kind: aggKind(a, inSchema)}
		aggNames[canonical(a)] = name
	}
	op := exec.Operator(exec.NewGroupAggregate(input, keys, keyCols, specs, aggCols))
	internal := op.Schema()

	if s.Having != nil {
		rewritten, err := rewriteForGroups(s.Having, groupNames, aggNames)
		if err != nil {
			return nil, fmt.Errorf("plan: HAVING: %w", err)
		}
		c, err := exec.Compile(rewritten, internal)
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, c)
	}
	// Final projection from the internal schema to the select items.
	projItems := make([]exec.ProjectItem, len(items))
	for i, it := range items {
		rewritten, err := rewriteForGroups(it.Expr, groupNames, aggNames)
		if err != nil {
			return nil, err
		}
		c, err := exec.Compile(rewritten, internal)
		if err != nil {
			return nil, err
		}
		tbl, name := exec.ColumnLabel(it)
		projItems[i] = exec.ProjectItem{
			Expr: c,
			Col:  types.Column{Table: tbl, Name: name, Kind: inferKind(it.Expr, inSchema)},
		}
	}
	return exec.NewProject(op, projItems), nil
}

// planProjection builds the final projection for non-aggregate queries.
func (p *Planner) planProjection(input exec.Operator, inSchema types.Schema,
	items []sql.SelectItem) (exec.Operator, error) {
	projItems := make([]exec.ProjectItem, len(items))
	for i, it := range items {
		c, err := exec.Compile(it.Expr, input.Schema())
		if err != nil {
			return nil, err
		}
		tbl, name := exec.ColumnLabel(it)
		projItems[i] = exec.ProjectItem{
			Expr: c,
			Col:  types.Column{Table: tbl, Name: name, Kind: inferKind(it.Expr, input.Schema())},
		}
	}
	return exec.NewProject(input, projItems), nil
}

// inferKind derives a static result kind for display purposes. It is a
// best-effort inference; runtime values govern actual behaviour.
func inferKind(e sql.Expr, schema types.Schema) types.Kind {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Val.Kind()
	case *sql.ColRef:
		if ix, err := schema.ColumnIndex(x.Name); err == nil {
			return schema.Columns[ix].Kind
		}
		return types.KindNull
	case *sql.FuncCall:
		return aggKind(x, schema)
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			return types.KindBool
		}
		return inferKind(x.X, schema)
	case *sql.IsNullExpr:
		return types.KindBool
	case *sql.InExpr, *sql.BetweenExpr:
		return types.KindBool
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return types.KindBool
		case "/":
			return types.KindFloat
		default:
			lk := inferKind(x.L, schema)
			rk := inferKind(x.R, schema)
			if lk == types.KindString && rk == types.KindString {
				return types.KindString
			}
			if lk == types.KindFloat || rk == types.KindFloat {
				return types.KindFloat
			}
			return types.KindInt
		}
	}
	return types.KindNull
}

func aggKind(a *sql.FuncCall, schema types.Schema) types.Kind {
	switch a.Name {
	case "COUNT":
		return types.KindInt
	case "AVG":
		return types.KindFloat
	default: // SUM, MIN, MAX follow the argument
		if a.Arg != nil {
			return inferKind(a.Arg, schema)
		}
		return types.KindFloat
	}
}
