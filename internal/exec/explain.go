package exec

import (
	"fmt"
	"strings"
	"time"
)

// Described is implemented by operators that can report their role and
// children for EXPLAIN output. All operators in this package implement it.
type Described interface {
	// Describe returns a one-line description of the operator.
	Describe() string
	// Children returns the operator's inputs, left to right.
	Children() []Operator
}

// Explain renders the operator tree rooted at op, one node per line with
// two-space indentation per depth.
func Explain(op Operator) string {
	var b strings.Builder
	explainInto(&b, op, 0)
	return strings.TrimRight(b.String(), "\n")
}

func explainInto(b *strings.Builder, op Operator, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if d, ok := op.(Described); ok {
		b.WriteString(d.Describe())
		b.WriteByte('\n')
		for _, child := range d.Children() {
			explainInto(b, child, depth+1)
		}
		return
	}
	fmt.Fprintf(b, "%T\n", op)
}

// ExplainAnalyze renders the operator tree rooted at op after execution,
// annotating each node with its runtime counters: rows produced, envelope
// merge and curate operations, and wall time spent inside the operator
// (inclusive of children; collected when the statement context enabled
// timing). This is the EXPLAIN ANALYZE rendering.
func ExplainAnalyze(op Operator) string {
	var b strings.Builder
	explainAnalyzeInto(&b, op, 0)
	return strings.TrimRight(b.String(), "\n")
}

func explainAnalyzeInto(b *strings.Builder, op Operator, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	d, described := op.(Described)
	if described {
		b.WriteString(d.Describe())
	} else {
		fmt.Fprintf(b, "%T", op)
	}
	if in, ok := op.(Instrumented); ok {
		st := in.Stats()
		fmt.Fprintf(b, "  (rows=%d batches=%d merges=%d curates=%d time=%s)",
			st.Rows, st.Batches, st.Merges, st.Curates, st.Wall.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	if described {
		for _, child := range d.Children() {
			explainAnalyzeInto(b, child, depth+1)
		}
	}
}

// Describe implements Described.
func (v *ValuesOp) Describe() string { return fmt.Sprintf("Values (%d rows)", len(v.rows)) }

// Children implements Described.
func (v *ValuesOp) Children() []Operator { return nil }

// Describe implements Described.
func (f *Filter) Describe() string {
	if f.pred.HasSummaryTerms() {
		return "SummaryFilter " + f.pred.String()
	}
	return "Filter " + f.pred.String()
}

// Children implements Described.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// Describe implements Described.
func (p *Project) Describe() string { return describeItems(p.items) }

// describeItems renders a curating projection, standalone or absorbed
// into a Scan.
func describeItems(items []ProjectItem) string {
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.Expr.String()
	}
	return "Project+Curate [" + strings.Join(cols, ", ") + "]"
}

// Children implements Described.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// Describe implements Described.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.n) }

// Children implements Described.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

// Describe implements Described.
func (j *HashJoin) Describe() string {
	keys := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		keys[i] = j.leftKeys[i].String() + " = " + j.rightKeys[i].String()
	}
	return "HashJoin+MergeSummaries ON " + strings.Join(keys, " AND ")
}

// Children implements Described.
func (j *HashJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Describe implements Described.
func (j *NestedLoopJoin) Describe() string {
	if j.cond == nil {
		return "CrossJoin+MergeSummaries"
	}
	return "NestedLoopJoin+MergeSummaries ON " + j.cond.String()
}

// Children implements Described.
func (j *NestedLoopJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Describe implements Described.
func (g *GroupAggregate) Describe() string {
	var parts []string
	for _, k := range g.keys {
		parts = append(parts, k.String())
	}
	var aggs []string
	for _, a := range g.aggs {
		if a.Arg != nil {
			aggs = append(aggs, a.Func+"("+a.Arg.String()+")")
		} else {
			aggs = append(aggs, a.Func+"(*)")
		}
	}
	return fmt.Sprintf("GroupAggregate+CombineSummaries BY [%s] COMPUTE [%s]",
		strings.Join(parts, ", "), strings.Join(aggs, ", "))
}

// Children implements Described.
func (g *GroupAggregate) Children() []Operator { return []Operator{g.child} }

// Describe implements Described.
func (d *Distinct) Describe() string { return "Distinct+CombineSummaries" }

// Children implements Described.
func (d *Distinct) Children() []Operator { return []Operator{d.child} }

// Describe implements Described.
func (s *Sort) Describe() string {
	if s.summaryKeys() {
		return "SummarySort " + describeKeys(s.keys)
	}
	return "Sort " + describeKeys(s.keys)
}

// summaryKeys reports whether any sort key reads summary envelopes.
func (s *Sort) summaryKeys() bool {
	for _, k := range s.keys {
		if k.Expr.HasSummaryTerms() {
			return true
		}
	}
	return false
}

// Children implements Described.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

func describeKeys(keys []SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Describe implements Described.
func (t *Trace) Describe() string { return "Trace " + t.stage }

// Children implements Described.
func (t *Trace) Children() []Operator { return []Operator{t.child} }
