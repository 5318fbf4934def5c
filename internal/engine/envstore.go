package engine

import (
	"sync"

	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// envStripes is the stripe count of the summary store's lock. Power of two
// so the stripe pick is a mask; 32 stripes keep concurrent statements on
// distinct locks with high probability without bloating the DB struct.
const envStripes = 32

// envStore is the striped summary store: the maintained per-tuple summary
// envelopes of every annotated tuple, sharded N ways by (table, row) so
// concurrent statements fetching envelopes do not serialize on one
// RWMutex, and so the background catch-up worker blocks readers only on
// the stripe it is updating.
//
// The envelopes live in memory and in checkpoints: a checkpoint stores
// each one (read, not viewed, so writing it latches nothing shared) and
// recovery installs it, summarizing only the annotations logged since.
//
// Locking: each stripe guards its own table→row→envelope maps AND the
// envelopes within them — a stored envelope is only viewed or mutated
// while its stripe lock is held. Readers receive copy-on-write views
// (summary.Envelope.View) that share the stored maps and objects; update
// and mutate are the only in-place writers, and the first summary mutator
// fn calls on an envelope a reader has viewed since the last write copies
// the maps (and clones just the objects it changes) before writing, so a
// held view never changes. A never-viewed envelope is written in place
// at no extra cost. Maintenance (applyTasks) takes db.mu first; the
// ordering is always db.mu → stripe, never the reverse.
type envStore struct {
	stripes [envStripes]envStripe
}

type envStripe struct {
	mu sync.RWMutex
	m  map[string]map[types.RowID]*summary.Envelope
}

func newEnvStore() *envStore {
	s := &envStore{}
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
// envelope first when the tuple has none. fn runs under the stripe lock.
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
	fn(env)
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
// lock.
func (s *envStore) mutate(table string, row types.RowID, fn func(env *summary.Envelope) (drop bool)) {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	defer st.mu.Unlock()
	if env := st.m[table][row]; env != nil && fn(env) {
		delete(st.m[table], row)
	}
}

// mutateInstance sweeps the envelopes of table stripe by stripe and
// applies fn, under the stripe lock, to exactly those holding an object
// of the named instance; a true return drops that envelope. The others
// are only looked at, never written, so views readers hold of them stay
// shared.
func (s *envStore) mutateInstance(table, instance string, fn func(env *summary.Envelope) (drop bool)) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for row, env := range st.m[table] {
			if env.Object(instance) != nil && fn(env) {
				delete(st.m[table], row)
			}
		}
		st.mu.Unlock()
	}
}

// deleteRow drops the stored envelope of a tuple.
func (s *envStore) deleteRow(table string, row types.RowID) {
	st := s.stripeFor(table, row)
	st.mu.Lock()
	delete(st.m[table], row)
	st.mu.Unlock()
}

// dropTable drops every stored envelope of a table.
func (s *envStore) dropTable(table string) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
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
