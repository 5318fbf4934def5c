package annotation

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"insightnotes/internal/types"
)

// annStripes is the stripe count of the per-tuple ref index. Power of two
// so the stripe pick stays cheap; 32 stripes keep concurrent statements on
// distinct locks with high probability.
const annStripes = 32

// rowIndex is the (table, row) → annotation-ref index, sharded N ways by
// tuple key so concurrent statements resolving a tuple's refs do not
// serialize on the store's main mutex. The heap file and the id-keyed
// indexes stay under Store.mu; writers that need both take Store.mu before
// any stripe lock — the ordering is always Store.mu → stripe, never the
// reverse.
type rowIndex struct {
	stripes [annStripes]annStripe
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
	ix := &rowIndex{}
	for i := range ix.stripes {
		ix.stripes[i].m = make(map[string]map[types.RowID][]Ref)
	}
	return ix
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
}

// deleteRow drops a tuple's ref list entirely (tuple deletion cascade).
func (ix *rowIndex) deleteRow(table string, row types.RowID) {
	st := ix.stripeFor(table, row)
	st.mu.Lock()
	delete(st.m[table], row)
	st.mu.Unlock()
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
