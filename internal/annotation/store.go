package annotation

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// Store keeps raw annotations in a heap file and their targets in memory,
// with in-memory indexes: annotation id → heap RID, and (table, row) →
// annotation refs. mu guards all of it. No statement reads the per-tuple
// refs on its SELECT or ZOOMIN path (rows carry their stored envelopes),
// so one lock serves the few that do.
type Store struct {
	mu     sync.RWMutex
	anns   *storage.HeapFile
	nextID ID

	byID map[ID]storage.RID
	// rows holds, per table and tuple, its refs sorted by annotation id
	// with each id once: refs of one annotation to disjoint column sets of
	// a tuple are merged on arrival, so a tuple's distinct-annotation
	// count is the length of its list.
	rows map[string]map[types.RowID][]Ref
	// targetsOf maps an annotation to all its targets, for zoom-in
	// displays, re-summarization after instance changes, and deletion.
	targetsOf map[ID][]Target
	// rawBytes is the encoded size of every annotation and target record,
	// for the E1 size benchmarks.
	rawBytes int64
}

// NewStore creates an empty store over pool.
func NewStore(pool *storage.BufferPool) *Store {
	return &Store{
		anns:      storage.NewHeapFile(pool),
		nextID:    1,
		byID:      make(map[ID]storage.RID),
		rows:      make(map[string]map[types.RowID][]Ref),
		targetsOf: make(map[ID][]Target),
	}
}

// Pages returns the annotation heap's page ids, the scrubber's sweep list.
func (s *Store) Pages() []storage.PageID {
	return s.anns.Pages()
}

// VerifyAnnPage checks one annotation-heap page: structural invariants,
// then for up to sample records (sample <= 0 checks all) that the record
// decodes and the id index maps the annotation back to exactly this
// record.
func (s *Store) VerifyAnnPage(pid storage.PageID, sample int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.anns.ViewPage(pid, func(pg *storage.Page) error {
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
			a, err := decodeAnnotation(data)
			if err != nil {
				verr = fmt.Errorf("annotation: page %d slot %d: %w", pid, slot, err)
				return false
			}
			if rid, ok := s.byID[a.ID]; !ok || rid != (storage.RID{Page: pid, Slot: slot}) {
				verr = fmt.Errorf("annotation: page %d slot %d: id %d not mapped to this record", pid, slot, a.ID)
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

// attach indexes every target of annotation id and counts their records
// into rawBytes. Called with mu held.
func (s *Store) attach(id ID, targets []Target) {
	for _, tg := range targets {
		s.addRef(tg.Table, tg.Row, Ref{ID: id, Columns: tg.Columns})
		s.rawBytes += int64(len(encodeTarget(id, tg)))
	}
	s.targetsOf[id] = append(s.targetsOf[id], targets...)
}

// searchRef locates id in a tuple's sorted ref list.
func searchRef(refs []Ref, id ID) (int, bool) {
	return slices.BinarySearchFunc(refs, id, func(r Ref, id ID) int { return cmp.Compare(r.ID, id) })
}

// addRef attaches a ref to a tuple: a new id is inserted in id order (an
// append at the tail when ids arrive ascending), a known one gains the
// ref's columns. Called with mu held.
func (s *Store) addRef(table string, row types.RowID, ref Ref) {
	rows, ok := s.rows[table]
	if !ok {
		rows = make(map[types.RowID][]Ref)
		s.rows[table] = rows
	}
	refs := rows[row]
	i, found := searchRef(refs, ref.ID)
	if found {
		refs[i].Columns = refs[i].Columns.Union(ref.Columns)
		return
	}
	rows[row] = slices.Insert(refs, i, ref)
}

// dropRef removes one annotation's ref from a tuple's list, dropping the
// list when it empties. Called with mu held.
func (s *Store) dropRef(table string, row types.RowID, id ID) {
	refs := s.rows[table][row]
	i, found := searchRef(refs, id)
	switch {
	case !found:
	case len(refs) == 1:
		delete(s.rows[table], row)
	default:
		s.rows[table][row] = slices.Delete(refs, i, i+1)
	}
}

// Add stores the annotation under the next id and attaches it to every
// target; see Restore. Concurrent adders must serialise, as the engine's
// writers do.
func (s *Store) Add(a Annotation, targets []Target) (ID, error) {
	a.ID = s.NextID()
	return a.ID, s.Restore(a, targets)
}

// Restore stores an annotation under its own id and attaches it to every
// target. The id must be unused; the allocator advances past it. At least
// one target is required, each naming a table and a non-empty column set
// (use WholeRow for row-level annotations).
func (s *Store) Restore(a Annotation, targets []Target) error {
	if a.ID == 0 {
		return fmt.Errorf("annotation: Restore requires an id")
	}
	if len(targets) == 0 {
		return fmt.Errorf("annotation: at least one target required")
	}
	for _, tg := range targets {
		if tg.Columns.Empty() {
			return fmt.Errorf("annotation: empty column set for table %q row %d", tg.Table, tg.Row)
		}
		if tg.Table == "" {
			return fmt.Errorf("annotation: target missing table name")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[a.ID]; dup {
		return fmt.Errorf("annotation: annotation %d already exists", a.ID)
	}
	rec := encodeAnnotation(a)
	rid, err := s.anns.Insert(rec)
	if err != nil {
		return err
	}
	s.byID[a.ID] = rid
	s.rawBytes += int64(len(rec))
	s.attach(a.ID, targets)
	if a.ID >= s.nextID {
		s.nextID = a.ID + 1
	}
	return nil
}

// NextID exposes the id allocator position (snapshot persistence).
func (s *Store) NextID() ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextID
}

// EnsureNextID advances the id allocator to at least next (snapshot
// restore): annotation ids are never reused even when the most recent
// annotations were retracted before the snapshot was taken.
func (s *Store) EnsureNextID(next ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if next > s.nextID {
		s.nextID = next
	}
}

// Get retrieves an annotation by id.
func (s *Store) Get(id ID) (Annotation, error) {
	s.mu.RLock()
	rid, ok := s.byID[id]
	s.mu.RUnlock()
	if !ok {
		return Annotation{}, fmt.Errorf("annotation: no annotation %d", id)
	}
	data, err := s.anns.Get(rid)
	if err != nil {
		return Annotation{}, err
	}
	return decodeAnnotation(data)
}

// ForTuple returns the annotation refs attached to (table, row), sorted by
// annotation id: a private copy. Refs for the same annotation covering
// disjoint column sets are merged into one ref with the union coverage.
func (s *Store) ForTuple(table string, row types.RowID) []Ref {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.rows[table][row])
}

// TargetsOf returns every target of annotation id.
func (s *Store) TargetsOf(id ID) []Target {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Target(nil), s.targetsOf[id]...)
}

// Remove retracts annotation id: the annotation record is deleted and
// every index entry of it and its targets dropped. It returns the
// targets the annotation previously covered (so callers can curate the
// affected summary objects).
func (s *Store) Remove(id ID) ([]Target, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rid, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("annotation: no annotation %d", id)
	}
	data, err := s.anns.Get(rid)
	if err != nil {
		return nil, err
	}
	if err := s.anns.Delete(rid); err != nil {
		return nil, err
	}
	s.rawBytes -= int64(len(data))
	delete(s.byID, id)
	out := s.targetsOf[id]
	delete(s.targetsOf, id)
	for _, tg := range out {
		s.rawBytes -= int64(len(encodeTarget(id, tg)))
		s.dropRef(tg.Table, tg.Row, id)
	}
	return out, nil
}

// DetachRow removes every target pointing at (table, row) — the
// cascade of a tuple deletion. Annotations left with no targets anywhere
// are fully removed. It returns the ids that were attached to the row and
// the subset that became orphaned and was deleted.
func (s *Store) DetachRow(table string, row types.RowID) (detached, orphaned []ID, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := s.rows[table][row]
	if len(refs) == 0 {
		return nil, nil, nil
	}
	// refs holds each id once, in id order, so detached and orphaned come
	// out sorted.
	for _, ref := range refs {
		detached = append(detached, ref.ID)
		kept := s.targetsOf[ref.ID][:0]
		for _, tg := range s.targetsOf[ref.ID] {
			if tg.Table == table && tg.Row == row {
				s.rawBytes -= int64(len(encodeTarget(ref.ID, tg)))
				continue
			}
			kept = append(kept, tg)
		}
		s.targetsOf[ref.ID] = kept
		if len(kept) == 0 {
			rid := s.byID[ref.ID]
			if adata, gerr := s.anns.Get(rid); gerr == nil {
				s.rawBytes -= int64(len(adata))
			}
			if derr := s.anns.Delete(rid); derr != nil {
				return nil, nil, derr
			}
			delete(s.byID, ref.ID)
			delete(s.targetsOf, ref.ID)
			orphaned = append(orphaned, ref.ID)
		}
	}
	delete(s.rows[table], row)
	return detached, orphaned, nil
}

// Count returns the number of stored annotations.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// RawBytes returns the encoded size of the stored raw annotations and of
// their target records — the denominator of the paper's
// summary-compression measurements.
func (s *Store) RawBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rawBytes
}

// AnnotatedRows returns the rows of table that carry at least one
// annotation, sorted.
func (s *Store) AnnotatedRows(table string) []types.RowID {
	s.mu.RLock()
	out := make([]types.RowID, 0, len(s.rows[table]))
	for r := range s.rows[table] {
		out = append(out, r)
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}
