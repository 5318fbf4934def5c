package exec

import (
	"fmt"
	"slices"
	"strings"

	"insightnotes/internal/catalog"
	"insightnotes/internal/storage"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// EnvelopeSource supplies the stored summary envelope of a base-table
// tuple as a copy-on-write view (nil for an unannotated tuple). Nothing in
// the pipeline calls it: a Scan reads each envelope from its row's slot in
// the table. It remains only because the benchmark's traced pass hands the
// engine to plan.New; it goes with the next change to the benchmark.
type EnvelopeSource interface {
	EnvelopeFor(table string, row types.RowID) *summary.Envelope
}

// RowSource is how a Scan finds the rows it reads: the whole table, an
// index equality lookup, an index range, or the join keys a hash join
// hands over. It is the only part of a scan that varies with the access
// path — the planner picks one, the Scan resolves it to row IDs (in Open,
// or for join keys when they arrive), and everything after that is
// shared. The zero value is the full table.
type RowSource struct {
	kind         sourceKind
	col          string       // indexed column (index sources)
	val          types.Value  // equality probe
	lo, hi       *types.Value // range bounds; nil is open
	loInc, hiInc bool
	limit        int // join keys: the most distinct keys read by index
}

type sourceKind uint8

const (
	sourceTable sourceKind = iota
	sourceIndexEq
	sourceIndexRange
	sourceIndexKeys
)

// FullTable reads every row of the table.
func FullTable() RowSource { return RowSource{} }

// IndexEq reads the rows whose indexed column col equals val. The column
// must be indexed; the planner checks before choosing this source.
func IndexEq(col string, val types.Value) RowSource {
	return RowSource{kind: sourceIndexEq, col: col, val: val}
}

// IndexRange reads the rows whose indexed column col lies between lo and
// hi (nil bounds are open). The column must be indexed.
func IndexRange(col string, lo, hi *types.Value, loInc, hiInc bool) RowSource {
	return RowSource{kind: sourceIndexRange, col: col, lo: lo, hi: hi, loInc: loInc, hiInc: hiInc}
}

// Path names the source: "full", "index", "index_range" or "index_keys".
// EXPLAIN prints it as path= and the plan cache memoizes access-path
// choices under it.
func (rs RowSource) Path() string {
	return [...]string{"full", "index", "index_range", "index_keys"}[rs.kind]
}

// describe renders the index condition for EXPLAIN (empty for the full
// table).
func (rs RowSource) describe() string {
	switch rs.kind {
	case sourceIndexKeys:
		return fmt.Sprintf(" ON %s IN join keys (≤ %d keys)", rs.col, rs.limit)
	case sourceIndexEq:
		return fmt.Sprintf(" ON %s = %s", rs.col, rs.val)
	case sourceIndexRange:
		lo, hi := "-∞", "+∞"
		if rs.lo != nil {
			lo = "> " + rs.lo.String()
			if rs.loInc {
				lo = ">= " + rs.lo.String()
			}
		}
		if rs.hi != nil {
			hi = "< " + rs.hi.String()
			if rs.hiInc {
				hi = "<= " + rs.hi.String()
			}
		}
		return fmt.Sprintf(" ON %s [%s, %s]", rs.col, lo, hi)
	}
	return ""
}

// Rows yields the slots of the rows of tbl the source selects: each row's
// tuple and envelope pointer, read under the table lock, in row-id order
// for the full table and in key order through an index. The stored tuples
// are immutable, so sharing them is safe against later DML; a Scan views
// the envelopes as it reads them (Scan.read). The slice is the caller's.
// Join keys resolve through resolveKeys instead.
func (rs RowSource) Rows(tbl *catalog.Table) ([]catalog.Row, error) {
	var rows []types.RowID
	var err error
	switch rs.kind {
	case sourceIndexEq:
		rows, err = tbl.LookupByIndex(rs.col, rs.val)
	case sourceIndexRange:
		rows, err = tbl.LookupByIndexRange(rs.col, rs.lo, rs.hi, rs.loInc, rs.hiInc)
	default:
		return tbl.Rows(), nil
	}
	if err != nil {
		return nil, err
	}
	return tbl.GetRows(rows)
}

// Each calls fn with the id and stored tuple of each row of tbl the source
// selects, in the order Rows yields them, and returns fn's first error.
// Unlike Rows it copies no slot of a full table. fn must not write to tbl.
func (rs RowSource) Each(tbl *catalog.Table, fn func(types.RowID, types.Tuple) error) error {
	if rs.kind != sourceTable {
		rows, err := rs.Rows(tbl)
		for i := 0; i < len(rows) && err == nil; i++ {
			err = fn(rows[i].ID, rows[i].Tuple)
		}
		return err
	}
	var err error
	tbl.Scan(func(id types.RowID, tu types.Tuple) bool {
		err = fn(id, tu)
		return err == nil
	})
	return err
}

// resolveKeys yields the slots of the rows of tbl whose indexed column
// holds one of keys, in ascending row-id order — the full table's order —
// and n, the number of distinct keys, where distinct means distinct index
// keys (INT 3 and FLOAT 3.0 count once). Past the source's limit it stops
// counting at limit+1 and resolves nothing: the caller reads the table.
func (rs RowSource) resolveKeys(tbl *catalog.Table, keys []types.Value) (rows []catalog.Row, n int, err error) {
	seen := make(map[string]bool, min(len(keys), rs.limit+1))
	var ids []types.RowID
	var enc []byte
	for _, k := range keys {
		enc = storage.EncodeKey(enc[:0], k)
		if seen[string(enc)] {
			continue
		}
		if len(seen) == rs.limit {
			return nil, rs.limit + 1, nil
		}
		seen[string(enc)] = true
		match, err := tbl.LookupByIndex(rs.col, k)
		if err != nil {
			return nil, 0, err
		}
		ids = append(ids, match...)
	}
	slices.Sort(ids)
	rows, err = tbl.GetRows(slices.Compact(ids))
	return rows, len(seen), err
}

// Scan is the base-table scan: it reads the rows its RowSource selects
// under an alias, each carrying its stored summary envelope, and runs the
// whole per-tuple summary path itself — the absorbed data predicate, a
// view of the envelope in the row's slot, and the absorbed projection with
// its envelope curation. Rows come out in source order, so a Sort above
// keeps equal keys in input order at every batch size.
type Scan struct {
	instr
	table  *catalog.Table
	alias  string
	src    RowSource
	schema types.Schema // table schema under alias (pre-projection)
	pred   *Compiled    // absorbed data predicate; nil = none
	items  []ProjectItem
	cmap   *summary.ColMap // input ordinal → output coverage
	out    types.Schema    // output schema (post-projection)
	est    int             // planner's cardinality estimate; -1 = none attached

	// run state, rebuilt by Open
	rows    []catalog.Row
	pos     int  // next index into rows
	pending bool // join-keys source: rows await takeKeys or the first NextBatch
	keys    int  // distinct join keys handed over (at most limit+1); -1 = none
}

// NewScan creates a scan of tbl under alias (empty means the table name)
// reading the rows src selects. pred, when non-nil, is the absorbed data
// predicate compiled against the table schema under alias.
func NewScan(tbl *catalog.Table, alias string, src RowSource, pred *Compiled) *Scan {
	if alias == "" {
		alias = tbl.Name()
	}
	schema := tbl.Schema().WithTable(alias)
	return &Scan{
		table:  tbl,
		alias:  alias,
		src:    src,
		schema: schema,
		pred:   pred,
		out:    schema,
		est:    -1,
		keys:   -1,
	}
}

// SetEstimatedRows attaches the planner's cardinality estimate, rendered
// by EXPLAIN so estimated and actual (EXPLAIN ANALYZE) row counts sit side
// by side.
func (s *Scan) SetEstimatedRows(n int) { s.est = n }

// AbsorbProject pushes a projection (compiled against the table schema
// under alias) into the scan: each tuple's item expressions are evaluated
// and its envelope curated down to the projected coverage where the tuple
// is read, instead of in a Project operator above. The planner calls it
// before Open; it replaces any previously absorbed projection.
func (s *Scan) AbsorbProject(items []ProjectItem) {
	s.items = items
	s.out = s.schema
	s.cmap = nil
	if len(items) == 0 {
		return
	}
	cols := make([]types.Column, len(items))
	for i, it := range items {
		cols[i] = it.Col
	}
	s.out = types.Schema{Columns: cols}
	s.cmap = itemsColMap(items, s.schema.Len())
}

// Schema implements Operator.
func (s *Scan) Schema() types.Schema { return s.out }

// Open implements Operator: it resolves the row source once, so DML
// running after Open does not disturb the iteration. A join-keys source
// resolves later, when its keys arrive (takeKeys) or on the first
// NextBatch; the statement lock keeps DML out of the interval.
func (s *Scan) Open(ec *ExecContext) error {
	if err := ec.Err(); err != nil {
		return err
	}
	s.rows, s.pos, s.keys = nil, 0, -1
	s.pending = s.src.kind == sourceIndexKeys
	if s.pending {
		return nil
	}
	var err error
	s.rows, err = s.src.Rows(s.table)
	return err
}

// keyBy makes a full-table scan keyable on its indexed column col (see
// HashJoin.KeyProbe) and reports whether it did: a scan already reading
// through an index keeps its source.
func (s *Scan) keyBy(col string, limit int) bool {
	if s.src.kind != sourceTable {
		return false
	}
	s.src = RowSource{kind: sourceIndexKeys, col: col, limit: limit}
	return true
}

// takeKeys hands a keyable scan, after Open, the key values its rows are
// wanted for; duplicates need not be removed, NULLs must be. It resolves
// the rows by index when the distinct keys are within the limit, and the
// whole table otherwise. It does nothing to another scan or once the rows
// resolved.
func (s *Scan) takeKeys(keys []types.Value) error {
	if !s.pending {
		return nil
	}
	s.pending = false
	rows, n, err := s.src.resolveKeys(s.table, keys)
	if err != nil {
		return err
	}
	s.keys = n
	if !s.byKeys() {
		rows = s.table.Rows()
	}
	s.rows = rows
	return nil
}

// byKeys reports whether the rows were read by join keys, through the
// index.
func (s *Scan) byKeys() bool { return s.keys >= 0 && s.keys <= s.src.limit }

// opName is the scan's metric label: its source's, except that a
// join-keys source reads as a plain scan unless its rows were read by keys.
func (s *Scan) opName() string {
	if s.src.kind == sourceIndexKeys && !s.byKeys() {
		return "scan"
	}
	return [...]string{"scan", "index_scan", "index_range_scan", "index_keys_scan"}[s.src.kind]
}

// NextBatch implements Operator: it reads rows in source order until it
// holds a batch of rows that pass the absorbed predicate or the source
// runs out, polling cancellation once per batch-size stretch of input.
func (s *Scan) NextBatch(ec *ExecContext) (*Batch, error) {
	if s.pending {
		s.pending = false
		s.rows = s.table.Rows()
	}
	start := s.begin(ec)
	n := ec.BatchSize()
	out := make([]*Row, 0, min(n, len(s.rows)-s.pos))
	for len(out) < n && s.pos < len(s.rows) {
		if err := ec.checkCancel(); err != nil {
			return nil, err
		}
		for end := min(s.pos+n-len(out), len(s.rows)); s.pos < end; s.pos++ {
			row, err := s.read(ec, s.pos)
			if err != nil {
				return nil, err
			}
			if row != nil {
				out = append(out, row)
			}
		}
	}
	var b *Batch
	if len(out) > 0 {
		b = &Batch{Rows: out}
	}
	s.produced(ec, start, b)
	return b, nil
}

// read runs the summary path over the k-th selected row: the absorbed
// predicate, a view of the row's envelope, then the absorbed projection
// with its curation. A row the predicate rejects reads as nil, and its
// envelope is never viewed.
func (s *Scan) read(ec *ExecContext, k int) (*Row, error) {
	tu := s.rows[k].Tuple
	if s.pred != nil {
		v, err := s.pred.Eval(tu)
		if err != nil || !v.Truthy() {
			return nil, err
		}
	}
	var env *summary.Envelope
	if stored := s.rows[k].Env; stored != nil {
		env = stored.View()
	}
	if len(s.items) == 0 {
		return &Row{Tuple: tu, Env: env}, nil
	}
	proj := make(types.Tuple, len(s.items))
	for i, it := range s.items {
		v, err := it.Expr.Eval(tu)
		if err != nil {
			return nil, err
		}
		proj[i] = v
	}
	if env != nil {
		s.curated(ec)
	}
	return &Row{Tuple: proj, Env: envRemap(env, s.cmap)}, nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.rows, s.pending = nil, false
	return nil
}

// Describe implements Described. Once handed its keys, a join-keys
// source also says how its rows were read: by index, or by the table.
func (s *Scan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan %s AS %s path=%s%s",
		s.table.Name(), s.alias, s.src.Path(), s.src.describe())
	switch {
	case s.byKeys():
		fmt.Fprintf(&b, " read by %d keys", s.keys)
	case s.keys >= 0:
		fmt.Fprintf(&b, " read by table: over %d keys", s.src.limit)
	}
	if s.est >= 0 {
		fmt.Fprintf(&b, " (est≈%d rows)", s.est)
	}
	if s.pred != nil {
		b.WriteString(" Filter " + s.pred.String())
	}
	if len(s.items) > 0 {
		b.WriteString(" " + describeItems(s.items))
	}
	return b.String()
}

// Children implements Described.
func (s *Scan) Children() []Operator { return nil }

// ValuesOp produces a fixed in-memory row set — used by tests and by
// zoom-in re-filtering of cached results.
type ValuesOp struct {
	instr
	schema types.Schema
	rows   []*Row
	pos    int
}

// NewValues creates an operator over pre-built rows.
func NewValues(schema types.Schema, rows []*Row) *ValuesOp {
	return &ValuesOp{schema: schema, rows: rows}
}

// Schema implements Operator.
func (v *ValuesOp) Schema() types.Schema { return v.schema }

// Open implements Operator.
func (v *ValuesOp) Open(ec *ExecContext) error {
	v.pos = 0
	return ec.Err()
}

// NextBatch implements Operator.
func (v *ValuesOp) NextBatch(ec *ExecContext) (*Batch, error) {
	if err := ec.checkCancel(); err != nil {
		return nil, err
	}
	start := v.begin(ec)
	b := sliceBatch(v.rows, &v.pos, ec.BatchSize())
	if b == nil {
		return nil, nil
	}
	v.produced(ec, start, b)
	return b, nil
}

// Close implements Operator.
func (v *ValuesOp) Close() error { return nil }
