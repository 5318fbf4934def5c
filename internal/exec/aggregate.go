package exec

import (
	"fmt"

	"insightnotes/internal/annotation"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// AggSpec describes one aggregate computation: the function name and its
// compiled argument (nil for COUNT(*)).
type AggSpec struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Arg  *Compiled
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	isInt bool
	init  bool
	minV  types.Value
	maxV  types.Value
}

func (s *aggState) add(v types.Value) {
	if v.IsNull() {
		return
	}
	if !s.init {
		s.init = true
		s.isInt = v.Kind() == types.KindInt
		s.minV, s.maxV = v, v
	}
	s.count++
	switch v.Kind() {
	case types.KindInt:
		s.sumI += v.Int()
		s.sumF += float64(v.Int())
	case types.KindFloat:
		s.isInt = false
		s.sumF += v.Float()
	}
	if types.Compare(v, s.minV) < 0 {
		s.minV = v
	}
	if types.Compare(v, s.maxV) > 0 {
		s.maxV = v
	}
}

func (s *aggState) result(fn string, starCount int64) (types.Value, error) {
	switch fn {
	case "COUNT":
		if starCount >= 0 {
			return types.NewInt(starCount), nil
		}
		return types.NewInt(s.count), nil
	case "SUM":
		if s.count == 0 {
			return types.Null(), nil
		}
		if s.isInt {
			return types.NewInt(s.sumI), nil
		}
		return types.NewFloat(s.sumF), nil
	case "AVG":
		if s.count == 0 {
			return types.Null(), nil
		}
		return types.NewFloat(s.sumF / float64(s.count)), nil
	case "MIN":
		if s.count == 0 {
			return types.Null(), nil
		}
		return s.minV, nil
	case "MAX":
		if s.count == 0 {
			return types.Null(), nil
		}
		return s.maxV, nil
	default:
		return types.Value{}, fmt.Errorf("exec: unknown aggregate %q", fn)
	}
}

// GroupAggregate groups input rows by key expressions and computes
// aggregates per group. With no keys it produces exactly one global row
// (even over empty input). Output schema: group keys then aggregates.
//
// Summary semantics: every group member's envelope is combined into the
// group's output envelope — the paper's grouping transformation — with
// coverage remapped so that an annotation on a key input column follows
// that key's output position and an annotation on an aggregated input
// column follows the aggregate's output position. Each row's envelope is
// only curated (an annotation on no column the output draws on is
// dropped), so a row that loses nothing hands on its stored view as is. A
// group combines its members' envelopes in batches (envGroup): one merge
// of many sorted lists at a time, not one per row into a growing
// accumulator. The combined envelope is rebased once: a union of coverage
// and a remap commute per column, and curation still precedes the merge.
type GroupAggregate struct {
	instr
	child  Operator
	keys   []*Compiled
	aggs   []AggSpec
	schema types.Schema
	cmap   *summary.ColMap // the output rebase

	out []*Row
	pos int
}

// NewGroupAggregate creates the operator. keyCols and aggCols describe the
// output columns for the keys and aggregates respectively.
func NewGroupAggregate(child Operator, keys []*Compiled, keyCols []types.Column,
	aggs []AggSpec, aggCols []types.Column) *GroupAggregate {
	cols := append(append([]types.Column{}, keyCols...), aggCols...)
	mapping := make([]annotation.ColSet, child.Schema().Len())
	for out, k := range keys {
		for _, in := range k.Cols() {
			mapping[in] = mapping[in].Union(annotation.Col(out))
		}
	}
	for ai, a := range aggs {
		out := len(keys) + ai
		if a.Arg != nil {
			for _, in := range a.Arg.Cols() {
				mapping[in] = mapping[in].Union(annotation.Col(out))
			}
		} else {
			// COUNT(*) aggregates the whole tuple: every input column's
			// annotations follow it.
			for in := range mapping {
				mapping[in] = mapping[in].Union(annotation.Col(out))
			}
		}
	}
	return &GroupAggregate{child: child, keys: keys, aggs: aggs,
		schema: types.Schema{Columns: cols}, cmap: summary.NewColMap(mapping)}
}

// Schema implements Operator.
func (g *GroupAggregate) Schema() types.Schema { return g.schema }

type aggGroup struct {
	keyVals types.Tuple
	states  []aggState
	star    int64
	env     envGroup // the members' curated envelopes
}

// Open implements Operator: drains the child and materializes the groups
// in first-seen order. Cancellation mid-materialization aborts via the
// child's row-batch polls.
func (g *GroupAggregate) Open(ec *ExecContext) error {
	if err := g.child.Open(ec); err != nil {
		return err
	}
	groups := make(map[uint64][]*aggGroup)
	var order []*aggGroup
	err := drain(ec, g.child, func(row *Row) error {
		keyVals := make(types.Tuple, len(g.keys))
		for i, k := range g.keys {
			v, err := k.Eval(row.Tuple)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		h := keyVals.Hash(nil)
		var grp *aggGroup
		for _, cand := range groups[h] {
			if cand.keyVals.EqualOn(keyVals, nil) {
				grp = cand
				break
			}
		}
		if grp == nil {
			grp = &aggGroup{keyVals: keyVals, states: make([]aggState, len(g.aggs))}
			groups[h] = append(groups[h], grp)
			order = append(order, grp)
		}
		grp.star++
		for i, spec := range g.aggs {
			if spec.Arg == nil {
				continue
			}
			v, err := spec.Arg.Eval(row.Tuple)
			if err != nil {
				return err
			}
			grp.states[i].add(v)
		}
		if row.Env != nil {
			g.curated(ec)
			g.merged(ec)
		}
		if env := envCurate(row.Env, g.cmap.Live()); env != nil {
			grp.env.add(env)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(g.keys) == 0 && len(order) == 0 {
		// Global aggregate over empty input: one row of zero/NULL results.
		order = append(order, &aggGroup{states: make([]aggState, len(g.aggs))})
	}
	g.out = g.out[:0]
	for _, grp := range order {
		tu := make(types.Tuple, 0, len(g.keys)+len(g.aggs))
		tu = append(tu, grp.keyVals...)
		for i, spec := range g.aggs {
			star := int64(-1)
			if spec.Func == "COUNT" && spec.Arg == nil {
				star = grp.star
			}
			v, err := grp.states[i].result(spec.Func, star)
			if err != nil {
				return err
			}
			tu = append(tu, v)
		}
		g.out = append(g.out, &Row{Tuple: tu, Env: envRemap(grp.env.combine(), g.cmap)})
	}
	g.pos = 0
	return nil
}

// NextBatch implements Operator.
func (g *GroupAggregate) NextBatch(ec *ExecContext) (*Batch, error) {
	start := g.begin(ec)
	b := sliceBatch(g.out, &g.pos, ec.BatchSize())
	if b == nil {
		return nil, nil
	}
	g.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (g *GroupAggregate) Close() error {
	g.out = nil
	return g.child.Close()
}

// Distinct eliminates duplicate tuples, combining the envelopes of the
// eliminated duplicates into the surviving row — the paper's duplicate-
// elimination transformation: a reported tuple's summaries reflect every
// input duplicate's annotations. Like GroupAggregate it combines each
// survivor's envelopes in batches.
type Distinct struct {
	instr
	child Operator
	out   []*Row
	pos   int
}

// NewDistinct wraps child with duplicate elimination.
func NewDistinct(child Operator) *Distinct { return &Distinct{child: child} }

// Schema implements Operator.
func (d *Distinct) Schema() types.Schema { return d.child.Schema() }

// Open implements Operator: duplicate elimination is pipeline-breaking
// because a later duplicate can still add annotations to an earlier
// survivor's envelope.
func (d *Distinct) Open(ec *ExecContext) error {
	if err := d.child.Open(ec); err != nil {
		return err
	}
	seen := make(map[uint64][]*Row)
	envs := make(map[*Row]*envGroup) // survivors with duplicates
	d.out = d.out[:0]
	err := drain(ec, d.child, func(row *Row) error {
		h := row.Tuple.Hash(nil)
		var match *Row
		for _, cand := range seen[h] {
			if cand.Tuple.EqualOn(row.Tuple, nil) {
				match = cand
				break
			}
		}
		if match == nil {
			seen[h] = append(seen[h], row)
			d.out = append(d.out, row)
			return nil
		}
		if row.Env != nil {
			d.merged(ec)
			grp, ok := envs[match]
			if !ok {
				grp = &envGroup{env: match.Env}
				envs[match] = grp
			}
			grp.add(row.Env)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for row, grp := range envs {
		row.Env = grp.combine()
	}
	d.pos = 0
	return nil
}

// NextBatch implements Operator.
func (d *Distinct) NextBatch(ec *ExecContext) (*Batch, error) {
	start := d.begin(ec)
	b := sliceBatch(d.out, &d.pos, ec.BatchSize())
	if b == nil {
		return nil, nil
	}
	d.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.out = nil
	return d.child.Close()
}
