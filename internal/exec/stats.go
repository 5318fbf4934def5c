package exec

// OperatorName maps an operator instance to its stable snake_case metric
// label. These names are the {op} label values of the
// insightnotes_exec_op_* metric families, so they must stay stable across
// releases: dashboards and the slow-query log key on them.
func OperatorName(op Operator) string {
	switch op := op.(type) {
	case *Scan:
		return op.opName()
	case *ValuesOp:
		return "values"
	case *Filter:
		if op.pred.HasSummaryTerms() {
			return "summary_filter"
		}
		return "filter"
	case *Project:
		return "project"
	case *Limit:
		return "limit"
	case *HashJoin:
		return "hash_join"
	case *NestedLoopJoin:
		return "nested_loop_join"
	case *GroupAggregate:
		return "group_aggregate"
	case *Distinct:
		return "distinct"
	case *Sort:
		if op.summaryKeys() {
			return "summary_sort"
		}
		return "sort"
	case *Trace:
		return "trace"
	default:
		return "unknown"
	}
}

// WalkStats visits every instrumented operator in the plan rooted at op,
// depth-first, reporting each one's metric label and runtime counters.
// Engine code uses it at statement close to fold per-operator stats into
// the cumulative per-operator-type metric families.
func WalkStats(op Operator, fn func(name string, st OpStats)) {
	if op == nil {
		return
	}
	if in, ok := op.(Instrumented); ok {
		fn(OperatorName(op), in.Stats())
	}
	if d, ok := op.(Described); ok {
		for _, child := range d.Children() {
			WalkStats(child, fn)
		}
	}
}

// LikeMatch reports whether s matches the SQL LIKE pattern (% matches any
// run of characters, _ any single rune). Exported for SHOW METRICS LIKE,
// which reuses the expression evaluator's matcher against metric names.
func LikeMatch(s, pattern string) bool { return likeMatch(s, pattern) }
