package sql

import "slices"

// This file is the one traversal of the expression tree. Every pass that
// looks inside an expression — parameter binding, the column and summary
// references the planner asks about, aggregate collection, the GROUP BY
// checks and rewrite — goes through Walk or Rewrite; the only other
// switches over expression types evaluate or render a node.

// Walk visits e and its subexpressions in pre-order, left to right, in the
// style of go/ast.Inspect: when visit returns false, the node's children
// are skipped. A nil e visits nothing.
func Walk(e Expr, visit func(Expr) bool) {
	if e != nil && visit(e) {
		children(e, false, func(c *Expr) bool {
			Walk(*c, visit)
			return true
		})
	}
}

// Rewrite returns e with nodes replaced, in pre-order: fn returns
// (replacement, true, nil) to put replacement in a node's place and not
// descend into it, or (_, false, nil) to keep the node and rewrite its
// children. A kept interior node is copied with its rewritten children,
// so e is never mutated; a kept leaf is shared. The first error fn
// returns ends the rewrite. A nil e rewrites to nil.
func Rewrite(e Expr, fn func(Expr) (Expr, bool, error)) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	if out, done, err := fn(e); err != nil || done {
		return out, err
	}
	var err error
	out := children(e, true, func(c *Expr) bool {
		*c, err = Rewrite(*c, fn)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// children is the one place that names where each expression node keeps
// its subexpressions. It calls fn with a pointer to each child slot of e,
// in source order, until fn returns false. With clone set it copies an
// interior node (and its List) first, so fn may overwrite the copy's
// slots, and returns the copy; a leaf (Literal, ColRef, Param,
// SummaryCall) is returned as it is.
func children(e Expr, clone bool, fn func(*Expr) bool) Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		x = copyIf(clone, x)
		_ = fn(&x.L) && fn(&x.R)
		return x
	case *UnaryExpr:
		x = copyIf(clone, x)
		fn(&x.X)
		return x
	case *IsNullExpr:
		x = copyIf(clone, x)
		fn(&x.X)
		return x
	case *FuncCall:
		x = copyIf(clone, x)
		fn(&x.Arg)
		return x
	case *InExpr:
		if x = copyIf(clone, x); clone {
			x.List = slices.Clone(x.List)
		}
		if fn(&x.X) {
			for i := range x.List {
				if !fn(&x.List[i]) {
					break
				}
			}
		}
		return x
	case *BetweenExpr:
		x = copyIf(clone, x)
		_ = fn(&x.X) && fn(&x.Lo) && fn(&x.Hi)
		return x
	}
	return e
}

// exprSlots is the one place that names which fields of each statement
// hold expressions: it calls fn with a pointer to every one of them, in
// source order. A PREPARE's template is a statement of its own and is not
// entered. With clone set it first copies the statement and every slice
// that holds such a field, so fn may overwrite the slots without touching
// stmt, and returns the copy; otherwise fn must only read, and stmt is
// returned.
func exprSlots(stmt Statement, clone bool, fn func(*Expr)) Statement {
	switch s := stmt.(type) {
	case *Select:
		return selectSlots(s, clone, fn)
	case *Explain:
		if q := selectSlots(s.Query, clone, fn); clone {
			return &Explain{Query: q, Analyze: s.Analyze}
		}
		return s
	case *Insert:
		if s = copyIf(clone, s); clone {
			s.Rows = slices.Clone(s.Rows)
			for i, row := range s.Rows {
				s.Rows[i] = slices.Clone(row)
			}
		}
		for _, row := range s.Rows {
			for i := range row {
				fn(&row[i])
			}
		}
		return s
	case *Update:
		if s = copyIf(clone, s); clone {
			s.Set = slices.Clone(s.Set)
		}
		for i := range s.Set {
			fn(&s.Set[i].Value)
		}
		fn(&s.Where)
		return s
	case *Delete:
		s = copyIf(clone, s)
		fn(&s.Where)
		return s
	case *AddAnnotation:
		s = copyIf(clone, s)
		fn(&s.Where)
		return s
	case *ZoomIn:
		s = copyIf(clone, s)
		fn(&s.Where)
		return s
	case *Execute:
		// The one-shot client binding path may wrap an EXECUTE, so its
		// arguments are expression slots like any other.
		if s = copyIf(clone, s); clone {
			s.Args = slices.Clone(s.Args)
		}
		for i := range s.Args {
			fn(&s.Args[i])
		}
		return s
	}
	return stmt
}

// copyIf returns a shallow copy of x when clone is set, else x.
func copyIf[T any](clone bool, x *T) *T {
	if !clone {
		return x
	}
	c := *x
	return &c
}

func selectSlots(s *Select, clone bool, fn func(*Expr)) *Select {
	if s == nil {
		return nil
	}
	if s = copyIf(clone, s); clone {
		s.Items, s.Joins = slices.Clone(s.Items), slices.Clone(s.Joins)
		s.GroupBy, s.OrderBy = slices.Clone(s.GroupBy), slices.Clone(s.OrderBy)
	}
	for i := range s.Items {
		fn(&s.Items[i].Expr)
	}
	for i := range s.Joins {
		fn(&s.Joins[i].On)
	}
	fn(&s.Where)
	for i := range s.GroupBy {
		fn(&s.GroupBy[i])
	}
	fn(&s.Having)
	for i := range s.OrderBy {
		fn(&s.OrderBy[i].Expr)
	}
	return s
}
