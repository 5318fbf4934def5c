package exec

import (
	"insightnotes/internal/annotation"
	"insightnotes/internal/types"
)

// Filter passes rows whose predicate evaluates to true. Selection does not
// change the summary objects (Figure 2, step 2). The predicate sees the
// whole pipeline row, so a summary-based predicate (§2.1, compiled with
// CompileRow) reads the summaries flowing at this plan position — above a
// base relation's scan, the maintained ones.
type Filter struct {
	instr
	child Operator
	pred  *Compiled
}

// NewFilter wraps child with a compiled predicate.
func NewFilter(child Operator, pred *Compiled) *Filter {
	return &Filter{child: child, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ec *ExecContext) error { return f.child.Open(ec) }

// NextBatch implements Operator: child batches are filtered in place;
// fully-filtered batches are skipped so the operator never emits an empty
// batch.
func (f *Filter) NextBatch(ec *ExecContext) (*Batch, error) {
	start := f.begin(ec)
	for {
		b, err := f.child.NextBatch(ec)
		if err != nil || b == nil {
			f.produced(ec, start, nil)
			return nil, err
		}
		out := make([]*Row, 0, len(b.Rows))
		for _, row := range b.Rows {
			v, err := f.pred.EvalRow(row)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				out = append(out, row)
			}
		}
		if len(out) == 0 {
			continue
		}
		res := &Batch{Rows: out}
		f.produced(ec, start, res)
		return res, nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// ProjectItem is one output column of a projection: a compiled expression
// and its output column descriptor.
type ProjectItem struct {
	Expr *Compiled
	Col  types.Column
}

// Project computes output columns from input rows and applies the paper's
// project-on-summary-objects semantics: an annotation's new coverage is the
// set of output columns whose expressions reference at least one input
// column it covers; annotations covering no surviving column are
// eliminated from the summary objects (Figure 2, step 1).
type Project struct {
	instr
	child   Operator
	items   []ProjectItem
	schema  types.Schema
	mapping []annotation.ColSet // input ordinal → output coverage
}

// NewProject wraps child with projection items.
func NewProject(child Operator, items []ProjectItem) *Project {
	cols := make([]types.Column, len(items))
	for i, it := range items {
		cols[i] = it.Col
	}
	mapping := make([]annotation.ColSet, child.Schema().Len())
	for out, it := range items {
		for _, in := range it.Expr.Cols() {
			mapping[in] = mapping[in].Union(annotation.Col(out))
		}
	}
	return &Project{
		child:   child,
		items:   items,
		schema:  types.Schema{Columns: cols},
		mapping: mapping,
	}
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open(ec *ExecContext) error { return p.child.Open(ec) }

// NextBatch implements Operator.
func (p *Project) NextBatch(ec *ExecContext) (*Batch, error) {
	start := p.begin(ec)
	b, err := p.child.NextBatch(ec)
	if err != nil || b == nil {
		p.produced(ec, start, nil)
		return nil, err
	}
	out := make([]*Row, len(b.Rows))
	for ri, row := range b.Rows {
		tu, err := p.projectRow(ec, row)
		if err != nil {
			return nil, err
		}
		out[ri] = tu
	}
	res := &Batch{Rows: out}
	p.produced(ec, start, res)
	return res, nil
}

// projectRow computes one output row: the projected tuple plus the curated
// (coverage-remapped) envelope.
func (p *Project) projectRow(ec *ExecContext, row *Row) (*Row, error) {
	out := make(types.Tuple, len(p.items))
	for i, it := range p.items {
		v, err := it.Expr.Eval(row.Tuple)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	if row.Env != nil {
		p.curated(ec)
	}
	return &Row{Tuple: out, Env: envRemap(row.Env, p.mapping)}, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Limit passes through at most n rows.
type Limit struct {
	instr
	child Operator
	n     int
	seen  int
}

// NewLimit wraps child with a row cap.
func NewLimit(child Operator, n int) *Limit { return &Limit{child: child, n: n} }

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ec *ExecContext) error { l.seen = 0; return l.child.Open(ec) }

// NextBatch implements Operator: the batch holding the n-th row is
// truncated; later batches are never pulled.
func (l *Limit) NextBatch(ec *ExecContext) (*Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	start := l.begin(ec)
	b, err := l.child.NextBatch(ec)
	if err != nil || b == nil {
		l.produced(ec, start, nil)
		return nil, err
	}
	if rest := l.n - l.seen; len(b.Rows) > rest {
		b.Rows = b.Rows[:rest]
	}
	l.seen += len(b.Rows)
	l.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }
