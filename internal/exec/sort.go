package exec

import (
	"sort"

	"insightnotes/internal/types"
)

// SortKey is one ORDER BY key: a compiled expression and direction.
type SortKey struct {
	Expr *Compiled
	Desc bool
}

// Sort materializes and orders the input rows. The sort is stable so that
// equal keys preserve input order, and it does not change summary
// envelopes. Keys see the whole pipeline row: a summary-based key (§2.1,
// compiled with CompileRow) orders by the summaries as reported.
type Sort struct {
	instr
	child Operator
	keys  []SortKey
	out   []*Row
	pos   int
}

// NewSort wraps child with ORDER BY keys.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{child: child, keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() types.Schema { return s.child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ec *ExecContext) error {
	if err := s.child.Open(ec); err != nil {
		return err
	}
	s.out = s.out[:0]
	type keyed struct {
		row  *Row
		keys types.Tuple
	}
	var rows []keyed
	err := drain(ec, s.child, func(row *Row) error {
		kv := make(types.Tuple, len(s.keys))
		for i, k := range s.keys {
			v, err := k.Expr.EvalRow(row)
			if err != nil {
				return err
			}
			kv[i] = v
		}
		rows = append(rows, keyed{row: row, keys: kv})
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range s.keys {
			c := types.Compare(rows[a].keys[i], rows[b].keys[i])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, r := range rows {
		s.out = append(s.out, r.row)
	}
	s.pos = 0
	return nil
}

// NextBatch implements Operator.
func (s *Sort) NextBatch(ec *ExecContext) (*Batch, error) {
	start := s.begin(ec)
	b := sliceBatch(s.out, &s.pos, ec.BatchSize())
	if b == nil {
		return nil, nil
	}
	s.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.out = nil
	return s.child.Close()
}

// Collect drains an operator into a row slice under a background context —
// the convenience entry point for tests and internal drivers.
func Collect(op Operator) ([]*Row, error) {
	return CollectContext(nil, op)
}

// CollectContext drains an operator's batches into a row slice under ec,
// opening and closing it. It is the execution entry point used by the
// engine: the context is checked up front so an already-cancelled
// statement fails fast, and Close cascades even when Open fails partway
// (a join may have opened its children before its build was cancelled).
func CollectContext(ec *ExecContext, op Operator) ([]*Row, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if err := op.Open(ec); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	var out []*Row
	err := drain(ec, op, func(row *Row) error {
		out = append(out, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
