// Package catalog manages the engine's metadata and table access: relation
// schemas and their rows, secondary B+tree indexes, the registry of summary
// instances (level 2 of the paper's hierarchy), and the many-to-many links
// between instances and relations (Figure 4).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"insightnotes/internal/failpoint"
	"insightnotes/internal/storage"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// Table is one user relation: a schema, its rows, a row-id allocator, and
// optional secondary indexes.
//
// Rows live once, in memory, as immutable tuples in ascending row-id
// order, each in a slot beside its summary envelope: Get is a map lookup,
// a full scan walks the slots and shares the stored tuples. Update and
// Delete replace or drop a tuple and never mutate one in place, so a tuple
// handed out stays valid for as long as its holder keeps it. The
// checkpoint and WAL are the rows' durable copy.
//
// mu guards the slots, and of an envelope only its pointer: the engine
// writes a stored envelope in place only under its exclusive statement
// lock, and replaces the pointer when it must not (see SetEnvelope).
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  types.Schema
	rows    []Row               // ascending id; deleted entries have a nil tuple
	byRow   map[types.RowID]int // live row id → position in rows
	dead    int                 // deleted entries still in rows
	nextRow types.RowID
	indexes map[string]*storage.BTree // column name → index
}

// Row is one row slot: the row's id, its stored tuple and its maintained
// summary envelope (nil when the row has none). Rows and GetRows hand out
// copies of slots whose tuple and envelope are the stored ones, which the
// holder must not modify.
type Row struct {
	ID    types.RowID
	Tuple types.Tuple
	Env   *summary.Envelope
}

func newTable(name string, schema types.Schema) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		nextRow: 1,
		byRow:   make(map[types.RowID]int),
		indexes: make(map[string]*storage.BTree),
	}
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// Schema returns the relation schema (columns qualified with the table
// name).
func (t *Table) Schema() types.Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.byRow)
}

// Validate checks a tuple against the schema without inserting it, so
// batch ingest can verify every row before mutating anything (BULK INSERT
// is all-or-nothing).
func (t *Table) Validate(tu types.Tuple) error { return t.validate(tu) }

// validate checks a tuple against the schema: arity and value kinds (NULL
// is admissible in any column).
func (t *Table) validate(tu types.Tuple) error {
	if len(tu) != t.schema.Len() {
		return fmt.Errorf("catalog: table %s expects %d values, got %d", t.name, t.schema.Len(), len(tu))
	}
	for i, v := range tu {
		if v.IsNull() {
			continue
		}
		want := t.schema.Columns[i].Kind
		if v.Kind() == want {
			continue
		}
		// INT is acceptable for FLOAT columns (widened on read paths).
		if want == types.KindFloat && v.Kind() == types.KindInt {
			continue
		}
		return fmt.Errorf("catalog: table %s column %s wants %s, got %s",
			t.name, t.schema.Columns[i].Name, want, v.Kind())
	}
	return nil
}

// Insert appends a copy of tu under the next row id and returns the id.
// Concurrent inserters must serialise, as the engine's writers do.
func (t *Table) Insert(tu types.Tuple) (types.RowID, error) {
	row := t.NextRow()
	return row, t.InsertWithID(row, tu)
}

// InsertWithID stores a copy of tu under a specific id: the row ingest
// record's apply, which the engine runs for a statement, at recovery and
// on a replica. The id must not be in use; the allocator advances past it.
func (t *Table) InsertWithID(row types.RowID, tu types.Tuple) error {
	if err := t.validate(tu); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byRow[row]; dup {
		return fmt.Errorf("catalog: table %s already has row %d", t.name, row)
	}
	t.place(row, tu.Clone())
	if row >= t.nextRow {
		t.nextRow = row + 1
	}
	// Crash window between the row write and the index maintenance below:
	// the kill-and-recover suite proves recovery reconciles the two.
	if err := failpoint.Eval(failpoint.CatalogInsertIndex); err != nil {
		return err
	}
	t.indexRow(row, tu)
	return nil
}

// place stores tu under row, keeping rows in ascending id order. Ids are
// assigned ascending, so this is an append; only a restore of an id below
// the highest stored one shifts the tail. Called with mu held.
func (t *Table) place(row types.RowID, tu types.Tuple) {
	n := len(t.rows)
	if n == 0 || t.rows[n-1].ID < row {
		t.byRow[row] = n
		t.rows = append(t.rows, Row{ID: row, Tuple: tu})
		return
	}
	at := sort.Search(n, func(i int) bool { return t.rows[i].ID >= row })
	if t.rows[at].ID == row { // a deleted entry of the same id
		t.rows[at].Tuple = tu
		t.dead--
		t.byRow[row] = at
		return
	}
	t.rows = append(t.rows, Row{})
	copy(t.rows[at+1:], t.rows[at:])
	t.rows[at] = Row{ID: row, Tuple: tu}
	for i := at; i <= n; i++ {
		if t.rows[i].Tuple != nil {
			t.byRow[t.rows[i].ID] = i
		}
	}
}

// indexRow adds row's entries to every secondary index. Called with mu
// held.
func (t *Table) indexRow(row types.RowID, tu types.Tuple) {
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
	}
}

// NextRow exposes the row-id allocator position (snapshot persistence):
// the id the next Insert will assign.
func (t *Table) NextRow() types.RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextRow
}

// EnsureNextRow advances the row-id allocator to at least next (snapshot
// restore). Ids are never reused even across a crash: without this, a
// table whose highest-id rows were deleted before the snapshot would
// re-assign their ids after recovery.
func (t *Table) EnsureNextRow(next types.RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if next > t.nextRow {
		t.nextRow = next
	}
}

// Get returns the stored tuple of row id. It is shared: callers must not
// modify it.
func (t *Table) Get(row types.RowID) (types.Tuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.byRow[row]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s has no row %d", t.name, row)
	}
	return t.rows[i].Tuple, nil
}

// GetRows returns the slots of rows, in order, under one lock
// acquisition; see Row.
func (t *Table) GetRows(rows []types.RowID) ([]Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, len(rows))
	for i, row := range rows {
		j, ok := t.byRow[row]
		if !ok {
			return nil, fmt.Errorf("catalog: table %s has no row %d", t.name, row)
		}
		out[i] = t.rows[j]
	}
	return out, nil
}

// Rows returns the slots of every row in ascending row-id order, under
// one lock acquisition; see Row.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, 0, len(t.byRow))
	for _, r := range t.rows {
		if r.Tuple != nil {
			out = append(out, r)
		}
	}
	return out
}

// Envelope returns the stored envelope of row: nil when the row has none
// or does not exist. The caller must not modify it unless it holds the
// engine's exclusive statement lock; View gives a copy it may change.
func (t *Table) Envelope(row types.RowID) *summary.Envelope {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.byRow[row]; ok {
		return t.rows[i].Env
	}
	return nil
}

// SetEnvelope stores env as the envelope of row, nil dropping it, and
// reports whether the row exists. A reader that took the old pointer
// keeps a whole envelope: replacing the pointer is how a writer running
// beside readers publishes a new version.
func (t *Table) SetEnvelope(row types.RowID, env *summary.Envelope) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byRow[row]
	if ok {
		t.rows[i].Env = env
	}
	return ok
}

// EditEnvelopes calls fn with every stored envelope, in row-id order under
// the table's write lock, and stores what fn returns in its place: nil
// drops it. fn may change an envelope in place only as Envelope allows.
func (t *Table) EditEnvelopes(fn func(env *summary.Envelope) *summary.Envelope) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rows {
		if t.rows[i].Env != nil {
			t.rows[i].Env = fn(t.rows[i].Env)
		}
	}
}

// EnvelopeStats returns the number of stored envelopes and the sum of
// their approximate sizes.
func (t *Table) EnvelopeStats() (count int, bytes int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if r.Env != nil {
			count++
			bytes += int64(r.Env.ApproxBytes())
		}
	}
	return count, bytes
}

// Update replaces the tuple of row id with a copy of tu.
func (t *Table) Update(row types.RowID, tu types.Tuple) error {
	if err := t.validate(tu); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byRow[row]
	if !ok {
		return fmt.Errorf("catalog: table %s has no row %d", t.name, row)
	}
	old := t.rows[i].Tuple
	t.rows[i].Tuple = tu.Clone()
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		if !types.Equal(old[ci], tu[ci]) {
			idx.Delete(storage.EncodeKey(nil, old[ci]), uint64(row))
			idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
		}
	}
	return nil
}

// Delete removes row id and its envelope. The entry is dropped from rows
// once deleted entries make up half of it, so deletes cost amortized
// constant time.
func (t *Table) Delete(row types.RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byRow[row]
	if !ok {
		return fmt.Errorf("catalog: table %s has no row %d", t.name, row)
	}
	tu := t.rows[i].Tuple
	t.rows[i] = Row{ID: row}
	t.dead++
	delete(t.byRow, row)
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		idx.Delete(storage.EncodeKey(nil, tu[ci]), uint64(row))
	}
	if t.dead > len(t.rows)/2 {
		live := t.rows[:0]
		for _, r := range t.rows {
			if r.Tuple != nil {
				t.byRow[r.ID] = len(live)
				live = append(live, r)
			}
		}
		clear(t.rows[len(live):])
		t.rows, t.dead = live, 0
	}
	return nil
}

// Scan calls fn for every row in ascending row-id order with the stored
// tuple, which fn must not modify; fn returning false stops. fn must not
// write to the table.
func (t *Table) Scan(fn func(row types.RowID, tu types.Tuple) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if r.Tuple != nil && !fn(r.ID, r.Tuple) {
			return
		}
	}
}

// CreateIndex builds a secondary index over column col, indexing existing
// rows. Creating an index that already exists is an error.
func (t *Table) CreateIndex(col string) error {
	ci, err := t.schema.ColumnIndex(col)
	if err != nil {
		return err
	}
	name := t.schema.Columns[ci].Name
	t.mu.Lock()
	if _, dup := t.indexes[name]; dup {
		t.mu.Unlock()
		return fmt.Errorf("catalog: index on %s.%s already exists", t.name, name)
	}
	idx := storage.NewBTree()
	t.indexes[name] = idx
	t.mu.Unlock()
	t.fillIndex(idx, ci)
	return nil
}

// fillIndex inserts every row's key in column ci into idx.
func (t *Table) fillIndex(idx *storage.BTree, ci int) {
	t.Scan(func(row types.RowID, tu types.Tuple) bool {
		idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
		return true
	})
}

// VerifyIndexes checks every secondary index's structural invariants (key
// ordering, child fencing, leaf chain) and that its entry count matches
// the live row count — each row contributes exactly one entry per index.
func (t *Table) VerifyIndexes() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := len(t.byRow)
	for col, idx := range t.indexes {
		if err := idx.Verify(); err != nil {
			return fmt.Errorf("catalog: index %s.%s: %w", t.name, col, err)
		}
		if n := idx.Len(); n != rows {
			return fmt.Errorf("catalog: index %s.%s holds %d entries for %d rows", t.name, col, n, rows)
		}
	}
	return nil
}

// RebuildIndex rebuilds the secondary index on col from the rows and swaps
// it in — the repair for a corrupt or disagreeing index. The caller must
// hold the engine statement lock exclusively so no DML races the rebuild
// scan (the same discipline CreateIndex relies on).
func (t *Table) RebuildIndex(col string) error {
	_, name := types.SplitQualified(col)
	t.mu.RLock()
	_, exists := t.indexes[name]
	t.mu.RUnlock()
	if !exists {
		return fmt.Errorf("catalog: no index on %s.%s", t.name, name)
	}
	ci, err := t.schema.ColumnIndex(name)
	if err != nil {
		return err
	}
	idx := storage.NewBTree()
	t.fillIndex(idx, ci)
	t.mu.Lock()
	t.indexes[name] = idx
	t.mu.Unlock()
	return nil
}

// Index returns the index on column col, or nil.
func (t *Table) Index(col string) *storage.BTree {
	_, name := types.SplitQualified(col)
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[name]
}

// IndexedColumns returns the names of indexed columns.
func (t *Table) IndexedColumns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		out = append(out, c)
	}
	return out
}

// rangeKeys builds the encoded B+tree scan bounds of a value range. Nil
// bounds stay nil (open); inclusivity applies to the corresponding non-nil
// bound.
func rangeKeys(lo, hi *types.Value, loInc, hiInc bool) (loKey, hiKey []byte) {
	if lo != nil {
		loKey = storage.EncodeKey(nil, *lo)
		if !loInc {
			// Exclusive lower bound: the smallest key strictly greater
			// than every encoding of *lo.
			loKey = storage.KeySuccessorExact(loKey)
		}
	}
	if hi != nil {
		hiKey = storage.EncodeKey(nil, *hi)
		if hiInc {
			hiKey = storage.KeySuccessorExact(hiKey)
		}
	}
	return loKey, hiKey
}

// LookupByIndexRange returns the row ids whose col lies in the given
// range, using the index. Nil bounds are open; inclusivity applies to the
// corresponding non-nil bound. Results come back in index (value) order.
func (t *Table) LookupByIndexRange(col string, lo, hi *types.Value, loInc, hiInc bool) ([]types.RowID, error) {
	idx := t.Index(col)
	if idx == nil {
		return nil, fmt.Errorf("catalog: no index on %s.%s", t.name, col)
	}
	loKey, hiKey := rangeKeys(lo, hi, loInc, hiInc)
	var out []types.RowID
	idx.Scan(loKey, hiKey, func(_ []byte, v uint64) bool {
		out = append(out, types.RowID(v))
		return true
	})
	return out, nil
}

// TableStats are the cardinality statistics the planner's cost model reads:
// the live row count, maintained exactly (not sampled), so estimates for
// full scans are precise; index estimates come from capped B+tree dives
// (EstimateIndexEquality / EstimateIndexRange).
type TableStats struct {
	Rows int
}

// Stats returns the table's current cardinality statistics.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TableStats{Rows: len(t.byRow)}
}

// EstimateIndexEquality estimates the number of rows whose col equals v by
// diving into the index and counting at most limit entries. capped reports
// that the dive hit the limit (the true count is >= the estimate); ok is
// false when col has no index.
func (t *Table) EstimateIndexEquality(col string, v types.Value, limit int) (est int, capped, ok bool) {
	idx := t.Index(col)
	if idx == nil {
		return 0, false, false
	}
	key := storage.EncodeKey(nil, v)
	est, capped = idx.CountRange(key, storage.KeySuccessorExact(key), limit)
	return est, capped, true
}

// EstimateIndexRange estimates the number of rows whose col lies in the
// given range via a capped index dive; see EstimateIndexEquality.
func (t *Table) EstimateIndexRange(col string, lo, hi *types.Value, loInc, hiInc bool, limit int) (est int, capped, ok bool) {
	idx := t.Index(col)
	if idx == nil {
		return 0, false, false
	}
	loKey, hiKey := rangeKeys(lo, hi, loInc, hiInc)
	est, capped = idx.CountRange(loKey, hiKey, limit)
	return est, capped, true
}

// LookupByIndex returns the row ids whose col equals v, using the index.
func (t *Table) LookupByIndex(col string, v types.Value) ([]types.RowID, error) {
	idx := t.Index(col)
	if idx == nil {
		return nil, fmt.Errorf("catalog: no index on %s.%s", t.name, col)
	}
	vals := idx.Seek(storage.EncodeKey(nil, v))
	out := make([]types.RowID, len(vals))
	for i, u := range vals {
		out[i] = types.RowID(u)
	}
	return out, nil
}
