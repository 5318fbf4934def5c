package sql

import (
	"fmt"

	"insightnotes/internal/types"
)

// This file implements the parameter-binding half of prepared statements.
// A parsed template may contain Param placeholders anywhere a scalar
// expression is allowed; before planning, BindParams substitutes each one
// with a Literal carrying the EXECUTE-supplied value. Binding clones only
// the expression spines it rewrites — subtrees without placeholders are
// shared with the template, which stays immutable and reusable across
// concurrent EXECUTEs.

// NumParams returns the number of placeholders a statement template
// expects (the highest $n index), validating that the set of indexes is
// exactly $1..$n with no gaps.
func NumParams(stmt Statement) (int, error) {
	seen := map[int]bool{}
	max := 0
	walkStatementExprs(stmt, func(e Expr) {
		if p, ok := e.(*Param); ok {
			seen[p.Index] = true
			if p.Index > max {
				max = p.Index
			}
		}
	})
	for i := 1; i <= max; i++ {
		if !seen[i] {
			return 0, fmt.Errorf("sql: statement uses $%d but not $%d", max, i)
		}
	}
	return max, nil
}

// BindParams returns stmt with every Param placeholder replaced by the
// corresponding Literal from args (args[0] binds $1). The template is
// never mutated; when it holds no placeholders and args is empty, it is
// returned as-is.
func BindParams(stmt Statement, args []types.Value) (Statement, error) {
	n, err := NumParams(stmt)
	if err != nil {
		return nil, err
	}
	if len(args) != n {
		return nil, fmt.Errorf("sql: statement expects %d parameter(s), got %d", n, len(args))
	}
	if n == 0 {
		return stmt, nil
	}
	b := &binder{args: args}
	return b.statement(stmt), nil
}

type binder struct{ args []types.Value }

func (b *binder) statement(stmt Statement) Statement {
	switch s := stmt.(type) {
	case *Select:
		return b.selectStmt(s)
	case *Explain:
		out := *s
		out.Query = b.selectStmt(s.Query)
		return &out
	case *Insert:
		out := *s
		out.Rows = b.rows(s.Rows)
		return &out
	case *Update:
		out := *s
		out.Set = make([]SetClause, len(s.Set))
		for i, c := range s.Set {
			out.Set[i] = SetClause{Column: c.Column, Value: b.expr(c.Value)}
		}
		out.Where = b.expr(s.Where)
		return &out
	case *Delete:
		out := *s
		out.Where = b.expr(s.Where)
		return &out
	case *AddAnnotation:
		out := *s
		out.Where = b.expr(s.Where)
		return &out
	case *ZoomIn:
		out := *s
		out.Where = b.expr(s.Where)
		return &out
	case *Execute:
		// A placeholder may stand in an EXECUTE argument position (the
		// one-shot client binding path can wrap an EXECUTE); bind it like
		// any other expression list.
		out := *s
		out.Args = b.exprs(s.Args)
		return &out
	default:
		// No expression positions — nothing to bind.
		return stmt
	}
}

func (b *binder) selectStmt(s *Select) *Select {
	if s == nil {
		return nil
	}
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = it
		out.Items[i].Expr = b.expr(it.Expr)
	}
	out.Joins = make([]JoinClause, len(s.Joins))
	for i, j := range s.Joins {
		out.Joins[i] = JoinClause{Ref: j.Ref, On: b.expr(j.On)}
	}
	out.Where = b.expr(s.Where)
	out.GroupBy = b.exprs(s.GroupBy)
	out.Having = b.expr(s.Having)
	out.OrderBy = make([]OrderItem, len(s.OrderBy))
	for i, o := range s.OrderBy {
		out.OrderBy[i] = OrderItem{Expr: b.expr(o.Expr), Desc: o.Desc}
	}
	return &out
}

func (b *binder) rows(rows [][]Expr) [][]Expr {
	out := make([][]Expr, len(rows))
	for i, row := range rows {
		out[i] = b.exprs(row)
	}
	return out
}

func (b *binder) exprs(list []Expr) []Expr {
	if list == nil {
		return nil
	}
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = b.expr(e)
	}
	return out
}

func (b *binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Param:
		return &Literal{Val: b.args[x.Index-1]}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: b.expr(x.L), R: b.expr(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: b.expr(x.X)}
	case *IsNullExpr:
		return &IsNullExpr{X: b.expr(x.X), Negate: x.Negate}
	case *FuncCall:
		return &FuncCall{Name: x.Name, Arg: b.expr(x.Arg), Star: x.Star}
	case *InExpr:
		return &InExpr{X: b.expr(x.X), List: b.exprs(x.List), Negate: x.Negate}
	case *BetweenExpr:
		return &BetweenExpr{X: b.expr(x.X), Lo: b.expr(x.Lo), Hi: b.expr(x.Hi), Negate: x.Negate}
	default:
		// Literal, ColRef, SummaryCall: leaf nodes with no Param inside;
		// share with the template.
		return e
	}
}

// walkStatementExprs visits every expression node reachable from stmt in
// an unspecified order.
func walkStatementExprs(stmt Statement, fn func(Expr)) {
	switch s := stmt.(type) {
	case *Select:
		walkSelectExprs(s, fn)
	case *Explain:
		walkSelectExprs(s.Query, fn)
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
	case *Update:
		for _, c := range s.Set {
			walkExpr(c.Value, fn)
		}
		walkExpr(s.Where, fn)
	case *Delete:
		walkExpr(s.Where, fn)
	case *AddAnnotation:
		walkExpr(s.Where, fn)
	case *ZoomIn:
		walkExpr(s.Where, fn)
	case *Execute:
		for _, e := range s.Args {
			walkExpr(e, fn)
		}
	}
}

func walkSelectExprs(s *Select, fn func(Expr)) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		walkExpr(it.Expr, fn)
	}
	for _, j := range s.Joins {
		walkExpr(j.On, fn)
	}
	walkExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		walkExpr(g, fn)
	}
	walkExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		walkExpr(o.Expr, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *UnaryExpr:
		walkExpr(x.X, fn)
	case *IsNullExpr:
		walkExpr(x.X, fn)
	case *FuncCall:
		walkExpr(x.Arg, fn)
	case *InExpr:
		walkExpr(x.X, fn)
		for _, it := range x.List {
			walkExpr(it, fn)
		}
	case *BetweenExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	}
}
