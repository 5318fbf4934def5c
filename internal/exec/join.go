package exec

import (
	"insightnotes/internal/types"
)

// HashJoin is an equi-join: it builds a hash table over the right input
// keyed on the right key expressions and probes with the left. The output
// row's envelope is the merge of both inputs' envelopes with the right
// side's column coverage shifted past the left width — the paper's
// summary-merging join operator (Figure 2, step 3).
type HashJoin struct {
	instr
	left, right         Operator
	leftKeys, rightKeys []*Compiled
	schema              types.Schema

	build map[uint64][]*Row
	// probe state: buffered left batch, current left row, pending matches
	leftBuf []*Row
	leftIdx int
	cur     *Row
	pending []*Row
	pendIdx int
}

// NewHashJoin creates an equi-join on pairwise-equal compiled keys (left
// keys compiled against the left schema, right keys against the right).
func NewHashJoin(left, right Operator, leftKeys, rightKeys []*Compiled) *HashJoin {
	return &HashJoin{
		left:      left,
		right:     right,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		schema:    left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() types.Schema { return j.schema }

// Open implements Operator: builds the hash table over the right input.
// Cancellation during the build aborts via the row-batch polls of the
// right input's leaf operators.
func (j *HashJoin) Open(ec *ExecContext) error {
	if err := j.left.Open(ec); err != nil {
		return err
	}
	if err := j.right.Open(ec); err != nil {
		return err
	}
	j.build = make(map[uint64][]*Row)
	err := drain(ec, j.right, func(row *Row) error {
		key, null, err := j.keyHash(row.Tuple, j.rightKeys)
		if err != nil {
			return err
		}
		if !null { // NULL keys never join
			j.build[key] = append(j.build[key], row)
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.leftBuf = nil
	j.leftIdx = 0
	j.cur = nil
	j.pending = nil
	j.pendIdx = 0
	return nil
}

// keyHash evaluates the key expressions and hashes the resulting values;
// null reports whether any key value was NULL.
func (j *HashJoin) keyHash(tu types.Tuple, keys []*Compiled) (uint64, bool, error) {
	vals := make(types.Tuple, len(keys))
	for i, k := range keys {
		v, err := k.Eval(tu)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		vals[i] = v
	}
	return vals.Hash(nil), false, nil
}

// keysEqual verifies a hash match value-by-value.
func (j *HashJoin) keysEqual(lt, rt types.Tuple) (bool, error) {
	for i := range j.leftKeys {
		lv, err := j.leftKeys[i].Eval(lt)
		if err != nil {
			return false, err
		}
		rv, err := j.rightKeys[i].Eval(rt)
		if err != nil {
			return false, err
		}
		if lv.IsNull() || rv.IsNull() || !types.Equal(lv, rv) {
			return false, nil
		}
	}
	return true, nil
}

// NextBatch implements Operator: probes buffered left rows against the
// build table, accumulating up to one batch of join output per call.
func (j *HashJoin) NextBatch(ec *ExecContext) (*Batch, error) {
	start := j.begin(ec)
	leftWidth := j.left.Schema().Len()
	limit := ec.BatchSize()
	var out []*Row
	for len(out) < limit {
		if j.cur != nil && j.pendIdx < len(j.pending) {
			right := j.pending[j.pendIdx]
			j.pendIdx++
			ok, err := j.keysEqual(j.cur.Tuple, right.Tuple)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if right.Env != nil {
				j.merged(ec)
			}
			env := envMerge(envView(j.cur.Env), right.Env, leftWidth)
			out = append(out, &Row{Tuple: j.cur.Tuple.Concat(right.Tuple), Env: env})
			continue
		}
		if j.leftIdx >= len(j.leftBuf) {
			b, err := j.left.NextBatch(ec)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			j.leftBuf = b.Rows
			j.leftIdx = 0
		}
		row := j.leftBuf[j.leftIdx]
		j.leftIdx++
		key, null, err := j.keyHash(row.Tuple, j.leftKeys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		j.cur = row
		j.pending = j.build[key]
		j.pendIdx = 0
	}
	if len(out) == 0 {
		j.produced(ec, start, nil)
		return nil, nil
	}
	b := &Batch{Rows: out}
	j.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.build = nil
	j.leftBuf = nil
	j.pending = nil
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}

// NestedLoopJoin joins on an arbitrary condition compiled against the
// concatenated schema. It materializes the right input once.
type NestedLoopJoin struct {
	instr
	left, right Operator
	cond        *Compiled // nil = cross join
	schema      types.Schema

	rightRows []*Row
	leftBuf   []*Row
	leftIdx   int
	cur       *Row
	ri        int
}

// NewNestedLoopJoin creates a condition join (cond may be nil for a cross
// join; it is compiled against left.Schema().Concat(right.Schema())).
func NewNestedLoopJoin(left, right Operator, cond *Compiled) *NestedLoopJoin {
	return &NestedLoopJoin{
		left:   left,
		right:  right,
		cond:   cond,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() types.Schema { return j.schema }

// Open implements Operator. Cancellation during the right-side
// materialization aborts via the row-batch polls of its leaf operators.
func (j *NestedLoopJoin) Open(ec *ExecContext) error {
	if err := j.left.Open(ec); err != nil {
		return err
	}
	if err := j.right.Open(ec); err != nil {
		return err
	}
	j.rightRows = j.rightRows[:0]
	err := drain(ec, j.right, func(row *Row) error {
		j.rightRows = append(j.rightRows, row)
		return nil
	})
	if err != nil {
		return err
	}
	j.leftBuf = nil
	j.leftIdx = 0
	j.cur = nil
	j.ri = 0
	return nil
}

// NextBatch implements Operator: accumulates up to one batch of join
// output per call, polling cancellation once per call (an unselective
// condition over a large cross product can loop long between outputs).
func (j *NestedLoopJoin) NextBatch(ec *ExecContext) (*Batch, error) {
	if err := ec.checkCancel(); err != nil {
		return nil, err
	}
	start := j.begin(ec)
	leftWidth := j.left.Schema().Len()
	limit := ec.BatchSize()
	var out []*Row
	for len(out) < limit {
		if j.cur == nil || j.ri >= len(j.rightRows) {
			if j.leftIdx >= len(j.leftBuf) {
				b, err := j.left.NextBatch(ec)
				if err != nil {
					return nil, err
				}
				if b == nil {
					j.cur = nil
					break
				}
				j.leftBuf = b.Rows
				j.leftIdx = 0
			}
			j.cur = j.leftBuf[j.leftIdx]
			j.leftIdx++
			j.ri = 0
			continue
		}
		right := j.rightRows[j.ri]
		j.ri++
		joined := j.cur.Tuple.Concat(right.Tuple)
		if j.cond != nil {
			v, err := j.cond.Eval(joined)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		if right.Env != nil {
			j.merged(ec)
		}
		env := envMerge(envView(j.cur.Env), right.Env, leftWidth)
		out = append(out, &Row{Tuple: joined, Env: env})
	}
	if len(out) == 0 {
		j.produced(ec, start, nil)
		return nil, nil
	}
	b := &Batch{Rows: out}
	j.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.rightRows = nil
	j.leftBuf = nil
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}
