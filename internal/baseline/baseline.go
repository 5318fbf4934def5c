// Package baseline implements a raw-annotation propagation engine in the
// style of pre-InsightNotes annotation managers (DBNotes and successors,
// refs [6, 11, 20] of the paper): query operators carry the complete raw
// annotations — full text and attached documents — of every tuple through
// the pipeline. It exists as the comparator for experiment E8: the paper's
// motivating claim is that summary-based propagation stays cheap as
// annotations-per-tuple grows while raw propagation degrades linearly in
// annotation volume.
package baseline

import (
	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/types"
)

// Row is one pipeline element: the data tuple plus its full raw
// annotations and their column coverage.
type Row struct {
	Tuple types.Tuple
	Anns  []annotation.Annotation
	Cover map[annotation.ID]annotation.ColSet
}

// Bytes returns the raw-annotation payload carried by the row — the
// propagation cost the paper's motivation counts.
func (r *Row) Bytes() int64 {
	var n int64
	for _, a := range r.Anns {
		n += int64(len(a.Text) + len(a.Title) + len(a.Document))
	}
	return n
}

// Operator is the baseline Volcano iterator.
type Operator interface {
	Schema() types.Schema
	Open() error
	Next() (*Row, error)
	Close() error
}

// Scan reads a table and attaches every tuple's raw annotations, fetched
// in full from the store.
type Scan struct {
	table  *catalog.Table
	store  *annotation.Store
	schema types.Schema

	rows []*Row
	pos  int
}

// NewScan creates a raw-annotation scan of tbl under alias.
func NewScan(tbl *catalog.Table, alias string, store *annotation.Store) *Scan {
	if alias == "" {
		alias = tbl.Name()
	}
	return &Scan{table: tbl, store: store, schema: tbl.Schema().WithTable(alias)}
}

// Schema implements Operator.
func (s *Scan) Schema() types.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open() error {
	s.rows = s.rows[:0]
	s.pos = 0
	var scanErr error
	s.table.Scan(func(rowID types.RowID, tu types.Tuple) bool {
		row := &Row{Tuple: tu.Clone()}
		refs := s.store.ForTuple(s.table.Name(), rowID)
		if len(refs) > 0 {
			row.Cover = make(map[annotation.ID]annotation.ColSet, len(refs))
			for _, ref := range refs {
				a, err := s.store.Get(ref.ID)
				if err != nil {
					scanErr = err
					return false
				}
				row.Anns = append(row.Anns, a)
				row.Cover[ref.ID] = ref.Columns
			}
		}
		s.rows = append(s.rows, row)
		return true
	})
	return scanErr
}

// Next implements Operator.
func (s *Scan) Next() (*Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.rows = nil
	return nil
}

// Filter passes rows satisfying pred (annotations unchanged).
type Filter struct {
	child Operator
	pred  func(types.Tuple) (bool, error)
}

// NewFilter wraps child with a predicate function.
func NewFilter(child Operator, pred func(types.Tuple) (bool, error)) *Filter {
	return &Filter{child: child, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.child.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.child.Open() }

// Next implements Operator.
func (f *Filter) Next() (*Row, error) {
	for {
		row, err := f.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := f.pred(row.Tuple)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// Project keeps the input columns keep (in order), dropping annotations
// whose coverage misses every kept column and rebasing survivors.
type Project struct {
	child  Operator
	keep   []int
	schema types.Schema
}

// NewProject wraps child with a column projection.
func NewProject(child Operator, keep []int) *Project {
	return &Project{child: child, keep: keep, schema: child.Schema().Project(keep)}
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error { return p.child.Open() }

// Next implements Operator.
func (p *Project) Next() (*Row, error) {
	row, err := p.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := &Row{Tuple: row.Tuple.Project(p.keep)}
	if len(row.Anns) > 0 {
		out.Cover = make(map[annotation.ID]annotation.ColSet)
		for _, a := range row.Anns {
			nc := row.Cover[a.ID].Remap(p.keep)
			if nc.Empty() {
				continue
			}
			out.Anns = append(out.Anns, a)
			out.Cover[a.ID] = nc
		}
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// HashJoin equi-joins on single key columns, concatenating tuples and
// merging raw annotation lists with id-level deduplication.
type HashJoin struct {
	left, right       Operator
	leftKey, rightKey int
	schema            types.Schema

	build   map[uint64][]*Row
	cur     *Row
	pending []*Row
	pi      int
}

// NewHashJoin joins left and right on tuple positions leftKey = rightKey.
func NewHashJoin(left, right Operator, leftKey, rightKey int) *HashJoin {
	return &HashJoin{
		left: left, right: right,
		leftKey: leftKey, rightKey: rightKey,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() types.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.build = make(map[uint64][]*Row)
	for {
		row, err := j.right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		v := row.Tuple[j.rightKey]
		if v.IsNull() {
			continue
		}
		j.build[v.Hash()] = append(j.build[v.Hash()], row)
	}
	j.cur = nil
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*Row, error) {
	leftWidth := j.left.Schema().Len()
	for {
		if j.cur != nil && j.pi < len(j.pending) {
			right := j.pending[j.pi]
			j.pi++
			if !types.Equal(j.cur.Tuple[j.leftKey], right.Tuple[j.rightKey]) {
				continue
			}
			out := &Row{Tuple: j.cur.Tuple.Concat(right.Tuple)}
			if len(j.cur.Anns)+len(right.Anns) > 0 {
				out.Cover = make(map[annotation.ID]annotation.ColSet)
				for _, a := range j.cur.Anns {
					out.Anns = append(out.Anns, a)
					out.Cover[a.ID] = j.cur.Cover[a.ID]
				}
				for _, a := range right.Anns {
					shifted := right.Cover[a.ID].Shift(leftWidth)
					if _, dup := out.Cover[a.ID]; dup {
						out.Cover[a.ID] = out.Cover[a.ID].Union(shifted)
						continue
					}
					out.Anns = append(out.Anns, a)
					out.Cover[a.ID] = shifted
				}
			}
			return out, nil
		}
		row, err := j.left.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, nil
		}
		v := row.Tuple[j.leftKey]
		if v.IsNull() {
			continue
		}
		j.cur = row
		j.pending = j.build[v.Hash()]
		j.pi = 0
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.build = nil
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}

// Collect drains an operator, returning the rows and the total raw
// annotation bytes propagated to the output.
func Collect(op Operator) ([]*Row, int64, error) {
	if err := op.Open(); err != nil {
		return nil, 0, err
	}
	defer op.Close()
	var out []*Row
	var bytes int64
	for {
		row, err := op.Next()
		if err != nil {
			return nil, 0, err
		}
		if row == nil {
			return out, bytes, nil
		}
		out = append(out, row)
		bytes += row.Bytes()
	}
}
