package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// EnvelopeSource supplies the stored summary envelope of a base-table
// tuple; the engine's summary store implements it. Implementations return
// nil for unannotated tuples and otherwise an envelope the pipeline may
// mutate through the summary methods without the store noticing — a
// summary.Envelope.View of the live envelope (or a private copy): the
// engine's background catch-up worker may be updating the live envelope
// concurrently with scans.
type EnvelopeSource interface {
	EnvelopeFor(table string, row types.RowID) *summary.Envelope
}

// RowSource is how a Scan finds the rows it reads: the whole heap, an
// index equality lookup, or an index range. It is the only part of a scan
// that varies with the access path — the planner picks one, the Scan
// resolves it to row IDs in Open, and everything after that is shared.
// The zero value is the full heap.
type RowSource struct {
	kind         sourceKind
	col          string       // indexed column (index sources)
	val          types.Value  // equality probe
	lo, hi       *types.Value // range bounds; nil is open
	loInc, hiInc bool
}

type sourceKind uint8

const (
	sourceHeap sourceKind = iota
	sourceIndexEq
	sourceIndexRange
)

// FullHeap reads every row of the table.
func FullHeap() RowSource { return RowSource{} }

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

// Path names the source: "full", "index" or "index_range". EXPLAIN prints
// it as path= and the plan cache memoizes access-path choices under it.
func (rs RowSource) Path() string {
	return [...]string{"full", "index", "index_range"}[rs.kind]
}

// opName is the scan's metric label under this source.
func (rs RowSource) opName() string {
	return [...]string{"scan", "index_scan", "index_range_scan"}[rs.kind]
}

// describe renders the index condition for EXPLAIN (empty for the heap).
func (rs RowSource) describe() string {
	switch rs.kind {
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

// resolve yields the row IDs of tbl the source selects. The heap walk has
// every tuple in hand, so it also snapshots them (cloned, so later DML
// does not disturb the iteration); index sources return no tuples and
// leave the heap fetch to the morsel workers.
func (rs RowSource) resolve(tbl *catalog.Table) (rows []types.RowID, tups []types.Tuple, err error) {
	switch rs.kind {
	case sourceIndexEq:
		rows, err = tbl.LookupByIndex(rs.col, rs.val)
		return rows, nil, err
	case sourceIndexRange:
		rows, err = tbl.LookupByIndexRange(rs.col, rs.lo, rs.hi, rs.loInc, rs.hiInc)
		return rows, nil, err
	}
	n := tbl.Len()
	rows, tups = make([]types.RowID, 0, n), make([]types.Tuple, 0, n)
	err = tbl.Scan(func(row types.RowID, tu types.Tuple) bool {
		rows = append(rows, row)
		tups = append(tups, tu.Clone())
		return true
	})
	return rows, tups, err
}

// Scan is the base-table scan: it reads the rows its RowSource selects
// under an alias, each carrying its stored summary envelope, and runs the
// whole per-tuple summary path itself — envelope fetch from the store, the
// absorbed data predicate, and the absorbed projection with its envelope
// curation.
//
// Execution is morsel-driven (Leis et al.): the row IDs are partitioned
// into fixed-size morsels claimed by a pool of worker goroutines, so the
// expensive propagation work parallelizes, not just the tuple copy. The
// pool is min(requested workers, morsels); at one worker the gatherer
// processes morsels inline and no goroutine is started, so a point lookup
// or a one-core host runs the same code serially.
//
// NextBatch is an ordered gather: morsel results are emitted strictly in
// morsel-index order, regardless of worker completion order. That makes
// the output byte-identical at every worker count, which preserves the
// stability contract of any Sort above (equal keys keep input order) and
// lets the equivalence property test compare results verbatim.
type Scan struct {
	instr
	table   *catalog.Table
	alias   string
	envs    EnvelopeSource
	src     RowSource
	schema  types.Schema // table schema under alias (pre-projection)
	pred    *Compiled    // absorbed data predicate; nil = none
	items   []ProjectItem
	mapping []annotation.ColSet // input ordinal → output coverage
	out     types.Schema        // output schema (post-projection)
	workers int                 // requested pool size
	morsel  int
	est     int // planner's cardinality estimate; -1 = none attached

	// run state, rebuilt by Open
	ec      *ExecContext
	rows    []types.RowID
	tups    []types.Tuple // heap snapshot; empty for index sources
	morsels []morselResult
	claim   atomic.Int64
	stop    atomic.Bool
	wg      sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond
	failure   error
	workerSts []OpStats // per-worker counters; nil once folded by finish
	forks     []*ExecContext

	gather  int // next morsel index to emit
	emitPos int // row offset within the gathered morsel
}

// morselResult is one morsel's processed rows; with a pool, done flips
// under Scan.mu when the owning worker finishes it.
type morselResult struct {
	rows []*Row
	done bool
}

// NewScan creates a scan of tbl under alias (empty means the table name)
// reading the rows src selects with up to workers goroutines (values below
// 1 mean 1). envs may be nil for summary-less execution. pred, when
// non-nil, is the absorbed data predicate compiled against the table
// schema under alias.
func NewScan(tbl *catalog.Table, alias string, envs EnvelopeSource,
	src RowSource, pred *Compiled, workers int) *Scan {
	if alias == "" {
		alias = tbl.Name()
	}
	schema := tbl.Schema().WithTable(alias)
	s := &Scan{
		table:   tbl,
		alias:   alias,
		envs:    envs,
		src:     src,
		schema:  schema,
		pred:    pred,
		out:     schema,
		workers: max(workers, 1),
		morsel:  DefaultMorselSize,
		est:     -1,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
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
	s.mapping = nil
	if len(items) == 0 {
		return
	}
	cols := make([]types.Column, len(items))
	for i, it := range items {
		cols[i] = it.Col
	}
	s.out = types.Schema{Columns: cols}
	s.mapping = make([]annotation.ColSet, s.schema.Len())
	for outIdx, it := range items {
		for _, in := range it.Expr.Cols() {
			s.mapping[in] = s.mapping[in].Union(annotation.Col(outIdx))
		}
	}
}

// Schema implements Operator.
func (s *Scan) Schema() types.Schema { return s.out }

// Open implements Operator: it resolves the row source (serially, so
// concurrent DML does not disturb the iteration), partitions the row IDs
// into morsels, and starts the worker pool when more than one worker has
// a morsel to claim.
func (s *Scan) Open(ec *ExecContext) error {
	s.finish() // a re-Open without Close must not overlap the previous run
	if err := ec.Err(); err != nil {
		return err
	}
	var err error
	s.rows, s.tups, err = s.src.resolve(s.table)
	if err != nil {
		return err
	}
	n := (len(s.rows) + s.morsel - 1) / s.morsel
	s.ec = ec
	s.morsels = make([]morselResult, n)
	s.claim.Store(0)
	s.stop.Store(false)
	s.failure = nil
	s.gather = 0
	s.emitPos = 0
	workers := min(s.workers, n)
	s.st.Workers = workers
	s.workerSts = make([]OpStats, workers)
	s.forks = make([]*ExecContext, workers)
	for w := range s.forks {
		s.forks[w] = ec.forkWorker()
	}
	if workers > 1 {
		s.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go s.worker(w)
		}
	}
	return nil
}

// worker claims morsels off the shared counter until the scan is drained,
// stopped, or failed. Results are published under s.mu and signalled to
// the gatherer.
func (s *Scan) worker(w int) {
	defer s.wg.Done()
	for !s.stop.Load() {
		i := int(s.claim.Add(1)) - 1
		if i >= len(s.morsels) {
			return
		}
		rows, err := s.processMorsel(w, i)
		s.mu.Lock()
		if err != nil && s.failure == nil {
			s.failure = err
		}
		s.morsels[i] = morselResult{rows: rows, done: true}
		s.cond.Broadcast()
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// processMorsel runs the summary-propagation path over morsel i as worker
// w: tuple and envelope fetch, predicate, projection + curation.
// Cancellation is polled once per morsel.
func (s *Scan) processMorsel(w, i int) ([]*Row, error) {
	wec := s.forks[w]
	if err := wec.checkCancel(); err != nil {
		return nil, err
	}
	timed := wec != nil && wec.timed
	var start time.Time
	if timed {
		start = time.Now()
	}
	lo := i * s.morsel
	hi := min(lo+s.morsel, len(s.rows))
	st := &s.workerSts[w]
	out := make([]*Row, 0, hi-lo)
	for k := lo; k < hi; k++ {
		var tu types.Tuple
		if k < len(s.tups) {
			tu = s.tups[k]
		} else {
			var err error
			if tu, err = s.table.Get(s.rows[k]); err != nil {
				return nil, err
			}
		}
		if s.pred != nil {
			v, err := s.pred.Eval(tu)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		var env *summary.Envelope
		if s.envs != nil {
			env = s.envs.EnvelopeFor(s.table.Name(), s.rows[k])
		}
		if len(s.items) > 0 {
			proj := make(types.Tuple, len(s.items))
			for ii, it := range s.items {
				v, err := it.Expr.Eval(tu)
				if err != nil {
					return nil, err
				}
				proj[ii] = v
			}
			if env != nil {
				st.Curates++
				if wec != nil {
					wec.totals.Curates++
				}
			}
			tu, env = proj, envRemap(env, s.mapping)
		}
		out = append(out, &Row{Tuple: tu, Env: env})
	}
	st.Morsels++
	if timed {
		st.Wall += time.Since(start)
	}
	return out, nil
}

// await returns morsel i's processed rows: computed here when the scan
// runs without a pool, waited for otherwise. Any worker's failure fails
// the scan at once, whichever morsel it hit.
func (s *Scan) await(i int) ([]*Row, error) {
	if len(s.forks) == 1 {
		m := &s.morsels[i]
		if !m.done {
			rows, err := s.processMorsel(0, i)
			if err != nil {
				return nil, err
			}
			*m = morselResult{rows: rows, done: true}
		}
		return m.rows, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.morsels[i].done && s.failure == nil {
		s.cond.Wait()
	}
	return s.morsels[i].rows, s.failure
}

// NextBatch implements Operator: the ordered gather. It obtains the
// next-in-order morsel, then emits its rows in batch-size slices.
func (s *Scan) NextBatch(ec *ExecContext) (*Batch, error) {
	if err := ec.checkCancel(); err != nil {
		return nil, err
	}
	start := s.begin(ec)
	for s.gather < len(s.morsels) {
		rows, err := s.await(s.gather)
		if err != nil {
			return nil, err
		}
		if b := sliceBatch(rows, &s.emitPos, ec.BatchSize()); b != nil {
			s.produced(ec, start, b)
			return b, nil
		}
		s.morsels[s.gather].rows = nil // emitted; release the morsel's memory early
		s.gather++
		s.emitPos = 0
	}
	s.finish()
	return nil, nil
}

// finish stops the pool and folds per-worker counters into the operator's
// stats and the statement totals — rows summed by the gather-side
// produced(), curation summed across workers, wall time reported as the
// busiest worker's (the critical path), plus the morsel count.
// Idempotent; called at end of stream, from Close, and before a re-Open.
func (s *Scan) finish() {
	s.stop.Store(true)
	s.wg.Wait()
	for w := range s.workerSts {
		st := &s.workerSts[w]
		s.st.Curates += st.Curates
		s.st.Morsels += st.Morsels
		if st.Wall > s.st.Wall {
			s.st.Wall = st.Wall
		}
		s.ec.foldWorker(s.forks[w])
	}
	s.workerSts = nil // folded; a second finish adds nothing
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.finish()
	s.ec = nil
	s.rows = nil
	s.tups = nil
	s.morsels = nil
	return nil
}

// Describe implements Described.
func (s *Scan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan %s AS %s path=%s%s workers=%d",
		s.table.Name(), s.alias, s.src.Path(), s.src.describe(), s.workers)
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
