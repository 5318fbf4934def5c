// Package catalog manages the engine's metadata and physical table access:
// relation schemas and their heap files, secondary B+tree indexes, the
// registry of summary instances (level 2 of the paper's hierarchy), and
// the many-to-many links between instances and relations (Figure 4).
package catalog

import (
	"encoding/binary"
	"fmt"
	"sync"

	"insightnotes/internal/failpoint"
	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// Table is one user relation: a schema, a heap file of rows, a row-id
// allocator, and optional secondary indexes.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  types.Schema
	heap    *storage.HeapFile
	nextRow types.RowID
	byRow   map[types.RowID]storage.RID
	indexes map[string]*storage.BTree // column name → index
}

func newTable(name string, schema types.Schema, heap *storage.HeapFile) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		heap:    heap,
		nextRow: 1,
		byRow:   make(map[types.RowID]storage.RID),
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

// encodeRow prefixes the tuple encoding with its row id.
func encodeRow(row types.RowID, tu types.Tuple) []byte {
	buf := binary.AppendUvarint(nil, uint64(row))
	return types.EncodeTuple(buf, tu)
}

// decodeRow splits a heap record into row id and tuple.
func decodeRow(data []byte) (types.RowID, types.Tuple, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("catalog: corrupt row header")
	}
	tu, _, err := types.DecodeTuple(data[n:])
	if err != nil {
		return 0, nil, err
	}
	return types.RowID(id), tu, nil
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

// Insert appends a row and returns its id.
func (t *Table) Insert(tu types.Tuple) (types.RowID, error) {
	if err := t.validate(tu); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.nextRow
	rid, err := t.heap.Insert(encodeRow(row, tu))
	if err != nil {
		return 0, err
	}
	t.byRow[row] = rid
	t.nextRow++
	// Crash window between the heap write and the index maintenance below:
	// the kill-and-recover suite proves recovery reconciles the two.
	if err := failpoint.Eval(failpoint.CatalogInsertIndex); err != nil {
		return 0, err
	}
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
	}
	return row, nil
}

// InsertWithID restores a row under a specific id (snapshot load). The id
// must not be in use; the allocator advances past it.
func (t *Table) InsertWithID(row types.RowID, tu types.Tuple) error {
	if err := t.validate(tu); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byRow[row]; dup {
		return fmt.Errorf("catalog: table %s already has row %d", t.name, row)
	}
	rid, err := t.heap.Insert(encodeRow(row, tu))
	if err != nil {
		return err
	}
	t.byRow[row] = rid
	if row >= t.nextRow {
		t.nextRow = row + 1
	}
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
	}
	return nil
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

// Get returns the tuple of row id.
func (t *Table) Get(row types.RowID) (types.Tuple, error) {
	t.mu.RLock()
	rid, ok := t.byRow[row]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: table %s has no row %d", t.name, row)
	}
	data, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	_, tu, err := decodeRow(data)
	return tu, err
}

// Update replaces the tuple of row id.
func (t *Table) Update(row types.RowID, tu types.Tuple) error {
	if err := t.validate(tu); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, ok := t.byRow[row]
	if !ok {
		return fmt.Errorf("catalog: table %s has no row %d", t.name, row)
	}
	old, err := t.heap.Get(rid)
	if err != nil {
		return err
	}
	_, oldTu, err := decodeRow(old)
	if err != nil {
		return err
	}
	nrid, err := t.heap.Update(rid, encodeRow(row, tu))
	if err != nil {
		return err
	}
	t.byRow[row] = nrid
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		if !types.Equal(oldTu[ci], tu[ci]) {
			idx.Delete(storage.EncodeKey(nil, oldTu[ci]), uint64(row))
			idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
		}
	}
	return nil
}

// Delete removes row id.
func (t *Table) Delete(row types.RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, ok := t.byRow[row]
	if !ok {
		return fmt.Errorf("catalog: table %s has no row %d", t.name, row)
	}
	data, err := t.heap.Get(rid)
	if err != nil {
		return err
	}
	_, tu, err := decodeRow(data)
	if err != nil {
		return err
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	delete(t.byRow, row)
	for col, idx := range t.indexes {
		ci, _ := t.schema.ColumnIndex(col)
		idx.Delete(storage.EncodeKey(nil, tu[ci]), uint64(row))
	}
	return nil
}

// Scan calls fn for every row in heap order; fn returning false stops.
func (t *Table) Scan(fn func(row types.RowID, tu types.Tuple) bool) error {
	var decodeErr error
	err := t.heap.Scan(func(_ storage.RID, data []byte) bool {
		row, tu, err := decodeRow(data)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(row, tu)
	})
	if err != nil {
		return err
	}
	return decodeErr
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
	return t.Scan(func(row types.RowID, tu types.Tuple) bool {
		idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
		return true
	})
}

// HeapPages returns the ids of the heap pages backing the table, in heap
// order — the scrubber's sweep list.
func (t *Table) HeapPages() []storage.PageID {
	return t.heap.Pages()
}

// VerifyPage checks heap page pid: the page's structural invariants, then
// for up to sample live records (sample <= 0 checks all) that the record
// decodes, that the row-id map points back at exactly this record, and
// that every secondary index contains the row under its key — the
// heap↔index agreement half of the scrub contract.
func (t *Table) VerifyPage(pid storage.PageID, sample int) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.ViewPage(pid, func(pg *storage.Page) error {
		if err := pg.Verify(); err != nil {
			return err
		}
		checked := 0
		var verr error
		rerr := pg.Records(func(slot uint16, data []byte) bool {
			if sample > 0 && checked >= sample {
				return false
			}
			checked++
			row, tu, err := decodeRow(data)
			if err != nil {
				verr = fmt.Errorf("catalog: table %s page %d slot %d: %w", t.name, pid, slot, err)
				return false
			}
			if rid, ok := t.byRow[row]; !ok || rid != (storage.RID{Page: pid, Slot: slot}) {
				verr = fmt.Errorf("catalog: table %s page %d slot %d: row %d not mapped to this record", t.name, pid, slot, row)
				return false
			}
			for col, idx := range t.indexes {
				ci, _ := t.schema.ColumnIndex(col)
				found := false
				for _, v := range idx.Seek(storage.EncodeKey(nil, tu[ci])) {
					if v == uint64(row) {
						found = true
						break
					}
				}
				if !found {
					verr = fmt.Errorf("catalog: index %s.%s missing row %d", t.name, col, row)
					return false
				}
			}
			return true
		})
		if rerr != nil {
			return rerr
		}
		return verr
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

// RebuildIndex rebuilds the secondary index on col from the heap and swaps
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
	if err := t.Scan(func(row types.RowID, tu types.Tuple) bool {
		idx.Insert(storage.EncodeKey(nil, tu[ci]), uint64(row))
		return true
	}); err != nil {
		return err
	}
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
// live row count and heap page count. Both are maintained exactly (not
// sampled), so estimates for full scans are precise; index estimates come
// from capped B+tree dives (EstimateIndexEquality / EstimateIndexRange).
type TableStats struct {
	Rows  int
	Pages int
}

// Stats returns the table's current cardinality statistics.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TableStats{Rows: len(t.byRow), Pages: t.heap.NumPages()}
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
