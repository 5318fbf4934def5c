package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"insightnotes/internal/annotation"
	"insightnotes/internal/storage"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// envStripes is the stripe count of the summary store's lock. Power of two
// so the stripe pick is a mask; 32 stripes keep parallel-scan workers on
// distinct locks with high probability without bloating the DB struct.
const envStripes = 32

// envStore is the striped summary store: the maintained per-tuple summary
// envelopes of every annotated tuple, sharded N ways by (table, row) so
// parallel scan workers fetching envelopes do not serialize on one
// RWMutex, and so the background catch-up worker blocks readers only on
// the stripe it is updating.
//
// Two storage structures back the in-memory maps:
//
//   - heap holds the persistent form of every envelope (coverage map plus
//     per-instance member lists) as one record per annotated tuple, written
//     through on every mutation. The live summary objects themselves stay
//     in memory — they are derived state, rebuilt from the raw annotations
//     on recovery — but the heap form pages envelope metadata through the
//     buffer pool like every other store. An envelope whose persistent
//     form outgrows a page (storage.ErrRecordTooLarge) degrades to
//     memory-only, which only loses the paging, not the envelope.
//
//   - instIdx is a B+tree keyed (instance name, table) → row, one entry
//     per summary object held by an envelope. Unlink and drop-instance
//     maintenance use it to touch exactly the envelopes that carry the
//     instance instead of sweeping every stripe's table map.
//
// Locking: each stripe guards its own table→row→envelope maps AND the
// envelopes within them — a stored envelope is only viewed or mutated
// while its stripe lock is held. Readers receive copy-on-write views
// (summary.Envelope.View) that share the stored maps and objects; update
// and mutate are the only in-place writers, and the first summary mutator
// fn calls on an envelope a reader has viewed since the last write copies
// the maps (and clones just the objects it changes) before writing, so a
// held view never changes. A never-viewed envelope is written in place
// at no extra cost. The heap and
// the B+tree have their own internal locks and are only called from under
// a stripe lock (leaf order, no cycles). Writers that also need the digest
// cache or instance models take db.mu first; the ordering is always
// db.mu → stripe, never the reverse.
type envStore struct {
	heap    *storage.HeapFile
	instIdx *storage.BTree
	stripes [envStripes]envStripe
}

type envStripe struct {
	mu sync.RWMutex
	m  map[string]map[types.RowID]*summary.Envelope
	// rids tracks the heap record of each envelope's persistent form. A
	// present envelope missing here is memory-only (oversize record).
	rids map[string]map[types.RowID]storage.RID
}

func newEnvStore(pool *storage.BufferPool) *envStore {
	s := &envStore{
		heap:    storage.NewHeapFile(pool),
		instIdx: storage.NewBTree(),
	}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]map[types.RowID]*summary.Envelope)
		s.stripes[i].rids = make(map[string]map[types.RowID]storage.RID)
	}
	return s
}

// stripeFor hashes (table, row) to a stripe — FNV-1a over the table name
// mixed with the row id, so consecutive rows of one table spread across
// stripes.
func (s *envStore) stripeFor(table string, row types.RowID) *envStripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(table); i++ {
		h ^= uint64(table[i])
		h *= 1099511628211
	}
	h ^= uint64(row)
	h *= 1099511628211
	return &s.stripes[h%envStripes]
}

// persistEnvelope is the heap-record form of one envelope: its identity,
// the coverage map, and the member list of each summary object. The
// objects' model state (classifier counts, cluster centroids, snippets) is
// derived from the raw annotations and is not persisted here.
type persistEnvelope struct {
	Table   string                              `json:"table"`
	Row     types.RowID                         `json:"row"`
	Cover   map[annotation.ID]annotation.ColSet `json:"cover"`
	Objects map[string][]annotation.ID          `json:"objects"`
}

func encodeEnvelope(table string, row types.RowID, env *summary.Envelope) []byte {
	members := make(map[string][]annotation.ID, len(env.Objects))
	for name, obj := range env.Objects {
		members[name] = obj.Members()
	}
	data, _ := json.Marshal(persistEnvelope{Table: table, Row: row, Cover: env.Cover, Objects: members})
	return data
}

// instKey is the B+tree key of one (instance, table) index entry.
func instKey(instance, table string) []byte {
	return storage.EncodeCompositeKey(nil, types.NewString(instance), types.NewString(table))
}

// instanceSet snapshots the instance names an envelope currently holds.
func instanceSet(env *summary.Envelope) map[string]bool {
	if env == nil || len(env.Objects) == 0 {
		return nil
	}
	out := make(map[string]bool, len(env.Objects))
	for name := range env.Objects {
		out[name] = true
	}
	return out
}

// reindex reconciles the instance index after a mutation: entries for
// instances the envelope gained are inserted, entries for instances it
// lost are deleted. A nil env drops every before entry.
func (s *envStore) reindex(table string, row types.RowID, before map[string]bool, env *summary.Envelope) {
	after := instanceSet(env)
	for name := range after {
		if !before[name] {
			s.instIdx.Insert(instKey(name, table), uint64(row))
		}
	}
	for name := range before {
		if !after[name] {
			s.instIdx.Delete(instKey(name, table), uint64(row))
		}
	}
}

// persist writes the envelope's persistent form through to the heap,
// updating in place when a record exists. Called with the stripe lock
// held. An envelope too large for a page drops its heap backing and stays
// memory-only.
func (s *envStore) persist(st *envStripe, table string, row types.RowID, env *summary.Envelope) {
	rec := encodeEnvelope(table, row, env)
	if rid, ok := st.rids[table][row]; ok {
		nrid, err := s.heap.Update(rid, rec)
		if err == nil {
			st.rids[table][row] = nrid
			return
		}
		s.heap.Delete(rid)
		delete(st.rids[table], row)
		if errors.Is(err, storage.ErrRecordTooLarge) {
			return
		}
	}
	rid, err := s.heap.Insert(rec)
	if err != nil {
		return // oversize: memory-only
	}
	rids, ok := st.rids[table]
	if !ok {
		rids = make(map[types.RowID]storage.RID)
		st.rids[table] = rids
	}
	rids[row] = rid
}

// unpersist deletes the envelope's heap record. Called with the stripe
// lock held.
func (s *envStore) unpersist(st *envStripe, table string, row types.RowID) {
	if rid, ok := st.rids[table][row]; ok {
		s.heap.Delete(rid)
		delete(st.rids[table], row)
	}
}

// view returns a copy-on-write view of the stored envelope of a tuple (nil
// when unannotated), taken under the stripe lock so readers never observe
// a mid-update envelope. It costs the same whatever the envelope's size.
func (s *envStore) view(table string, row types.RowID) *summary.Envelope {
	st := s.stripeFor(table, row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	env := st.m[table][row]
	if env == nil {
		return nil
	}
	return env.View()
}

// update applies fn to the stored envelope of a tuple, creating an empty
// envelope first when the tuple has none. fn runs under the stripe lock;
// the persistent form and the instance index are maintained after fn
// returns.
func (s *envStore) update(table string, row types.RowID, fn func(env *summary.Envelope)) {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	rows, ok := st.m[table]
	if !ok {
		rows = make(map[types.RowID]*summary.Envelope)
		st.m[table] = rows
	}
	env, ok := rows[row]
	if !ok {
		env = summary.NewEnvelope()
		rows[row] = env
	}
	before := instanceSet(env)
	fn(env)
	s.reindex(table, row, before, env)
	s.persist(st, table, row, env)
}

// mutate applies fn to the stored envelope of a tuple when one exists; a
// true return drops the (now empty) envelope. fn runs under the stripe
// lock; the persistent form and the instance index are maintained after
// fn returns.
func (s *envStore) mutate(table string, row types.RowID, fn func(env *summary.Envelope) (drop bool)) {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	env := st.m[table][row]
	if env == nil {
		return
	}
	before := instanceSet(env)
	if fn(env) {
		delete(st.m[table], row)
		s.reindex(table, row, before, nil)
		s.unpersist(st, table, row)
		return
	}
	s.reindex(table, row, before, env)
	s.persist(st, table, row, env)
}

// mutateInstance applies fn to exactly the envelopes of table that hold an
// object of the named instance, resolved through the instance index
// instead of a full stripe sweep; a true return drops that envelope.
func (s *envStore) mutateInstance(table, instance string, fn func(row types.RowID, env *summary.Envelope) (drop bool)) {
	key := instKey(instance, table)
	var rows []types.RowID
	s.instIdx.Scan(key, storage.KeySuccessorExact(key), func(_ []byte, v uint64) bool {
		rows = append(rows, types.RowID(v))
		return true
	})
	for _, row := range rows {
		s.mutate(table, row, func(env *summary.Envelope) bool { return fn(row, env) })
	}
}

// rowsForInstance returns the rows of table whose envelopes hold an object
// of the named instance, in index order — the read side of the instance
// index, for inspection and tests.
func (s *envStore) rowsForInstance(table, instance string) []types.RowID {
	key := instKey(instance, table)
	var rows []types.RowID
	s.instIdx.Scan(key, storage.KeySuccessorExact(key), func(_ []byte, v uint64) bool {
		rows = append(rows, types.RowID(v))
		return true
	})
	return rows
}

// deleteRow drops the stored envelope of a tuple.
func (s *envStore) deleteRow(table string, row types.RowID) {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	if env := st.m[table][row]; env != nil {
		s.reindex(table, row, instanceSet(env), nil)
		s.unpersist(st, table, row)
	}
	delete(st.m[table], row)
	st.mu.Unlock()
}

// dropTable drops every stored envelope of a table.
func (s *envStore) dropTable(table string) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for row, env := range st.m[table] {
			s.reindex(table, row, instanceSet(env), nil)
			s.unpersist(st, table, row)
		}
		delete(st.m, table)
		delete(st.rids, table)
		st.mu.Unlock()
	}
}

// verifyPage checks one envelope-heap page: structural invariants, then
// for up to sample records (sample <= 0 checks all) that the record
// decodes and the owning stripe maps the tuple back to exactly this
// record.
func (s *envStore) verifyPage(pid storage.PageID, sample int) error {
	return s.heap.ViewPage(pid, func(pg *storage.Page) error {
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
			var rec persistEnvelope
			if err := json.Unmarshal(data, &rec); err != nil {
				verr = fmt.Errorf("engine: envelope page %d slot %d: %w", pid, slot, err)
				return false
			}
			st := s.stripeFor(rec.Table, rec.Row)
			st.mu.RLock()
			rid, ok := st.rids[rec.Table][rec.Row]
			st.mu.RUnlock()
			if !ok || rid != (storage.RID{Page: pid, Slot: slot}) {
				verr = fmt.Errorf("engine: envelope page %d slot %d: (%s, %d) not mapped to this record", pid, slot, rec.Table, rec.Row)
				return false
			}
			return true
		})
		if rerr != nil {
			return rerr
		}
		return verr
	})
}

// repairPage rebuilds envelope-heap page pid from the live in-memory
// envelopes — envelopes are derived state held in the stripes, so a
// corrupt envelope page is always locally repairable.
func (s *envStore) repairPage(pid storage.PageID) error {
	var recs []storage.SlotRecord
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for table, rids := range st.rids {
			for row, rid := range rids {
				if rid.Page != pid {
					continue
				}
				env := st.m[table][row]
				if env == nil {
					st.mu.RUnlock()
					return fmt.Errorf("engine: envelope (%s, %d) has a heap record but no live envelope", table, row)
				}
				recs = append(recs, storage.SlotRecord{Slot: rid.Slot, Data: encodeEnvelope(table, row, env)})
			}
		}
		st.mu.RUnlock()
	}
	return s.heap.RepairPage(pid, recs)
}

// heapPages returns the envelope heap's page ids, the scrubber's sweep
// list for the summary store.
func (s *envStore) heapPages() []storage.PageID { return s.heap.Pages() }

// tableBytes sums the approximate envelope sizes of one table.
func (s *envStore) tableBytes(table string) int64 {
	var n int64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for _, env := range st.m[table] {
			n += int64(env.ApproxBytes())
		}
		st.mu.RUnlock()
	}
	return n
}

// count is the number of stored envelopes across all tables.
func (s *envStore) count() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for _, rows := range st.m {
			n += len(rows)
		}
		st.mu.RUnlock()
	}
	return n
}

// totalBytes sums the approximate envelope sizes across all tables.
func (s *envStore) totalBytes() int64 {
	var n int64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for _, rows := range st.m {
			for _, env := range rows {
				n += int64(env.ApproxBytes())
			}
		}
		st.mu.RUnlock()
	}
	return n
}
