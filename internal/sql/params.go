package sql

import (
	"fmt"

	"insightnotes/internal/types"
)

// This file implements the parameter-binding half of prepared statements.
// A parsed template may contain Param placeholders anywhere a scalar
// expression is allowed; before planning, BindParams substitutes each one
// with a Literal carrying the EXECUTE-supplied value. Binding is a Rewrite:
// it copies the statement and its expression spines and shares every
// other leaf with the template, which stays immutable and reusable across
// concurrent EXECUTEs.

// NumParams returns the number of placeholders a statement template
// expects (the highest $n index), validating that the set of indexes is
// exactly $1..$n with no gaps.
func NumParams(stmt Statement) (int, error) {
	seen := map[int]bool{}
	n := 0
	exprSlots(stmt, false, func(slot *Expr) {
		Walk(*slot, func(e Expr) bool {
			if p, ok := e.(*Param); ok {
				seen[p.Index] = true
				n = max(n, p.Index)
			}
			return true
		})
	})
	for i := 1; i <= n; i++ {
		if !seen[i] {
			return 0, fmt.Errorf("sql: statement uses $%d but not $%d", n, i)
		}
	}
	return n, nil
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
	// The rewrite never fails: every placeholder index is within args.
	return exprSlots(stmt, true, func(slot *Expr) {
		*slot, _ = Rewrite(*slot, func(e Expr) (Expr, bool, error) {
			if p, ok := e.(*Param); ok {
				return &Literal{Val: args[p.Index-1]}, true, nil
			}
			return nil, false, nil
		})
	}), nil
}
