package annotation

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// annStripes is the stripe count of the per-tuple ref index. Power of two
// so the stripe pick stays cheap; 32 stripes keep parallel-scan workers on
// distinct locks with high probability.
const annStripes = 32

// rowIndex is the (table, row) → annotation-ref index, sharded N ways by
// tuple key so parallel scan workers resolving a tuple's refs do not
// serialize on the store's main mutex. The heap file and the id-keyed
// indexes stay under Store.mu; writers that need both take Store.mu before
// any stripe lock — the ordering is always Store.mu → stripe, never the
// reverse.
type rowIndex struct {
	stripes [annStripes]annStripe
	// counts is a B+tree keyed (table, distinct-annotation count) → row,
	// maintained on every ref change, so "most annotated tuples of T" and
	// "rows with at least n annotations" resolve by range scan instead of
	// sweeping every stripe. The tree has its own internal lock and is only
	// called from under a stripe lock (leaf order, no cycles).
	counts *storage.BTree
}

// annStripe holds, per tuple, its refs sorted by annotation id with each
// id once: refs of one annotation to disjoint column sets of a tuple are
// merged on arrival, so a tuple's distinct-annotation count is the length
// of its list.
type annStripe struct {
	mu sync.RWMutex
	m  map[string]map[types.RowID][]Ref
}

func newRowIndex() *rowIndex {
	ix := &rowIndex{counts: storage.NewBTree()}
	for i := range ix.stripes {
		ix.stripes[i].m = make(map[string]map[types.RowID][]Ref)
	}
	return ix
}

// countKey is the count-index key of (table, n).
func countKey(table string, n int) []byte {
	return storage.EncodeCompositeKey(nil, types.NewString(table), types.NewInt(int64(n)))
}

// recount moves a row's count-index entry from before to after distinct
// annotations. Called with the row's stripe lock held.
func (ix *rowIndex) recount(table string, row types.RowID, before, after int) {
	if before == after {
		return
	}
	if before > 0 {
		ix.counts.Delete(countKey(table, before), uint64(row))
	}
	if after > 0 {
		ix.counts.Insert(countKey(table, after), uint64(row))
	}
}

// stripeFor hashes (table, row) to a stripe — FNV-1a over the table name
// mixed with the row id, so consecutive rows of one table spread across
// stripes.
func (ix *rowIndex) stripeFor(table string, row types.RowID) *annStripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(table); i++ {
		h ^= uint64(table[i])
		h *= 1099511628211
	}
	h ^= uint64(row)
	h *= 1099511628211
	return &ix.stripes[h%annStripes]
}

// searchRef locates id in a tuple's sorted ref list.
func searchRef(refs []Ref, id ID) (int, bool) {
	return slices.BinarySearchFunc(refs, id, func(r Ref, id ID) int { return cmp.Compare(r.ID, id) })
}

// add attaches a ref to a tuple: a new id is inserted in id order (an
// append at the tail when ids arrive ascending), a known one gains the
// ref's columns.
func (ix *rowIndex) add(table string, row types.RowID, ref Ref) {
	st := ix.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	rows, ok := st.m[table]
	if !ok {
		rows = make(map[types.RowID][]Ref)
		st.m[table] = rows
	}
	refs := rows[row]
	i, found := searchRef(refs, ref.ID)
	if found {
		refs[i].Columns = refs[i].Columns.Union(ref.Columns)
		return
	}
	rows[row] = slices.Insert(refs, i, ref)
	ix.recount(table, row, len(refs), len(refs)+1)
}

// refs returns the refs of a tuple, one per annotation id (union column
// coverage) and sorted by id — a private copy, safe to hold after the
// stripe lock is released.
func (ix *rowIndex) refs(table string, row types.RowID) []Ref {
	st := ix.stripeFor(table, row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return slices.Clone(st.m[table][row])
}

// dropAnn removes one annotation's ref from a tuple's list, dropping the
// list when it empties.
func (ix *rowIndex) dropAnn(table string, row types.RowID, id ID) {
	st := ix.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	refs := st.m[table][row]
	i, found := searchRef(refs, id)
	if !found {
		return
	}
	if len(refs) == 1 {
		delete(st.m[table], row)
	} else {
		st.m[table][row] = slices.Delete(refs, i, i+1)
	}
	ix.recount(table, row, len(refs), len(refs)-1)
}

// deleteRow drops a tuple's ref list entirely (tuple deletion cascade).
func (ix *rowIndex) deleteRow(table string, row types.RowID) {
	st := ix.stripeFor(table, row)
	st.mu.Lock()
	ix.recount(table, row, len(st.m[table][row]), 0)
	delete(st.m[table], row)
	st.mu.Unlock()
}

// countRange scans the count index of table ascending over [atLeast, ∞),
// reporting each (row, count) pair.
func (ix *rowIndex) countRange(table string, atLeast int, fn func(row types.RowID, count int) bool) {
	if atLeast < 1 {
		atLeast = 1
	}
	lo := countKey(table, atLeast)
	hi := storage.KeySuccessor(storage.EncodeCompositeKey(nil, types.NewString(table)))
	ix.counts.Scan(lo, hi, func(k []byte, v uint64) bool {
		vals, err := storage.DecodeCompositeKey(k)
		if err != nil || len(vals) != 2 {
			return true
		}
		return fn(types.RowID(v), int(vals[1].Float()))
	})
}

// rows returns the annotated rows of table, sorted.
func (ix *rowIndex) rows(table string) []types.RowID {
	var out []types.RowID
	for i := range ix.stripes {
		st := &ix.stripes[i]
		st.mu.RLock()
		for r := range st.m[table] {
			out = append(out, r)
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
