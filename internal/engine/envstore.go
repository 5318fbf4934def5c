package engine

import (
	"sync"

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
// The envelopes live in memory and in checkpoints: a checkpoint stores
// each one (read, not viewed, so writing it latches nothing shared) and
// recovery installs it, summarizing only the annotations logged since.
// Beside the maps, instIdx is a B+tree keyed (instance name, table) →
// row, one entry per summary object held by an envelope. Unlink and
// drop-instance maintenance use it to touch exactly the envelopes that
// carry the instance instead of sweeping every stripe's table map.
//
// Locking: each stripe guards its own table→row→envelope maps AND the
// envelopes within them — a stored envelope is only viewed or mutated
// while its stripe lock is held. Readers receive copy-on-write views
// (summary.Envelope.View) that share the stored maps and objects; update
// and mutate are the only in-place writers, and the first summary mutator
// fn calls on an envelope a reader has viewed since the last write copies
// the maps (and clones just the objects it changes) before writing, so a
// held view never changes. A never-viewed envelope is written in place
// at no extra cost. The B+tree has its own internal lock and is only
// called from under a stripe lock (leaf order, no cycles). Maintenance
// (applyTasks) takes db.mu first; the ordering is always db.mu → stripe,
// never the reverse.
type envStore struct {
	instIdx *storage.BTree
	stripes [envStripes]envStripe
}

type envStripe struct {
	mu sync.RWMutex
	m  map[string]map[types.RowID]*summary.Envelope
}

func newEnvStore() *envStore {
	s := &envStore{instIdx: storage.NewBTree()}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]map[types.RowID]*summary.Envelope)
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

// read calls fn with the stored envelope of a tuple, when it has one,
// under the stripe read lock. fn must neither keep nor change it; unlike
// view, read does not mark the envelope lent, so the next write to it
// need not copy it first.
func (s *envStore) read(table string, row types.RowID, fn func(env *summary.Envelope)) {
	st := s.stripeFor(table, row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if env := st.m[table][row]; env != nil {
		fn(env)
	}
}

// update applies fn to the stored envelope of a tuple, creating an empty
// envelope first when the tuple has none. fn runs under the stripe lock;
// the instance index is maintained after fn returns.
func (s *envStore) update(table string, row types.RowID, fn func(env *summary.Envelope)) {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	rows := st.rows(table)
	env, ok := rows[row]
	if !ok {
		env = summary.NewEnvelope()
		rows[row] = env
	}
	before := instanceSet(env)
	fn(env)
	s.reindex(table, row, before, env)
}

// install stores env, read from a checkpoint, as the envelope of a tuple
// that has none, and reports whether it did.
func (s *envStore) install(table string, row types.RowID, env *summary.Envelope) bool {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	rows := st.rows(table)
	if _, ok := rows[row]; ok {
		return false
	}
	rows[row] = env
	s.reindex(table, row, nil, env)
	return true
}

// rows returns the row map of table, created when missing. Callers hold
// the stripe lock.
func (st *envStripe) rows(table string) map[types.RowID]*summary.Envelope {
	rows, ok := st.m[table]
	if !ok {
		rows = make(map[types.RowID]*summary.Envelope)
		st.m[table] = rows
	}
	return rows
}

// mutate applies fn to the stored envelope of a tuple when one exists; a
// true return drops the (now empty) envelope. fn runs under the stripe
// lock; the instance index is maintained after fn returns.
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
		return
	}
	s.reindex(table, row, before, env)
}

// mutateInstance applies fn to exactly the envelopes of table that hold an
// object of the named instance, resolved through the instance index
// instead of a full stripe sweep; a true return drops that envelope.
func (s *envStore) mutateInstance(table, instance string, fn func(row types.RowID, env *summary.Envelope) (drop bool)) {
	for _, row := range s.rowsForInstance(table, instance) {
		s.mutate(table, row, func(env *summary.Envelope) bool { return fn(row, env) })
	}
}

// rowsForInstance returns the rows of table whose envelopes hold an object
// of the named instance, in index order — the read side of the instance
// index.
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
		}
		delete(st.m, table)
		st.mu.Unlock()
	}
}

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
