package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// BufferPool caches pages from a PageStore in a fixed number of frames with
// pin-counted LRU eviction. All InsightNotes heap access goes through a
// pool so that benchmark I/O behaviour resembles a real host DBMS.
type BufferPool struct {
	mu       sync.Mutex
	store    PageStore
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // of PageID, front = most recently used

	// quarantined maps pages known corrupt to their corruption error.
	// Fetch fails fast on them with the structured error until a reflush
	// (FlushResident) clears the entry or the process restarts.
	quarantined map[PageID]error

	// stats
	hits         uint64
	misses       uint64
	evictions    uint64
	readFailures uint64
}

type frame struct {
	page  Page
	pins  int
	dirty bool
	elem  *list.Element // non-nil only while unpinned (eligible for eviction)
}

// NewBufferPool creates a pool of capacity frames over store. Capacity must
// be at least 1.
func NewBufferPool(store PageStore, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		store:       store,
		capacity:    capacity,
		frames:      make(map[PageID]*frame, capacity),
		lru:         list.New(),
		quarantined: make(map[PageID]error),
	}
}

// Fetch pins page id and returns a pointer to its in-pool copy. The caller
// must Unpin it (with dirty=true if modified). The pointer is valid until
// the matching Unpin.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if qerr, ok := bp.quarantined[id]; ok {
		return nil, qerr
	}
	if fr, ok := bp.frames[id]; ok {
		bp.hits++
		if fr.elem != nil {
			bp.lru.Remove(fr.elem)
			fr.elem = nil
		}
		fr.pins++
		return &fr.page, nil
	}
	bp.misses++
	if err := bp.evictLocked(); err != nil {
		return nil, err
	}
	fr := &frame{pins: 1}
	if err := bp.store.ReadPage(id, &fr.page); err != nil {
		bp.readFailures++
		if errors.Is(err, ErrCorrupt) {
			// Quarantine on first sight so repeated fetches fail fast with
			// the structured error instead of re-reading a bad page.
			bp.quarantined[id] = err
		}
		return nil, err
	}
	bp.frames[id] = fr
	return &fr.page, nil
}

// Unpin releases one pin on page id, marking the frame dirty when the
// caller modified it. Unpinning a page that is not resident or not pinned
// is a programming error and returns one.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || fr.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
	if fr.pins == 0 {
		fr.elem = bp.lru.PushFront(id)
	}
	return nil
}

// Allocate creates a new page in the underlying store and returns it
// pinned, ready for writes.
func (bp *BufferPool) Allocate() (PageID, *Page, error) {
	id, err := bp.store.Allocate()
	if err != nil {
		return 0, nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.evictLocked(); err != nil {
		return 0, nil, err
	}
	fr := &frame{pins: 1}
	fr.page.Reset()
	fr.dirty = true
	bp.frames[id] = fr
	return id, &fr.page, nil
}

// evictLocked makes room for one more frame, flushing a dirty victim.
// Requires bp.mu held.
func (bp *BufferPool) evictLocked() error {
	for len(bp.frames) >= bp.capacity {
		back := bp.lru.Back()
		if back == nil {
			return fmt.Errorf("storage: buffer pool exhausted (%d frames, all pinned)", bp.capacity)
		}
		victim := back.Value.(PageID)
		fr := bp.frames[victim]
		if fr.dirty {
			if err := bp.store.WritePage(victim, &fr.page); err != nil {
				return err
			}
		}
		bp.lru.Remove(back)
		delete(bp.frames, victim)
		bp.evictions++
	}
	return nil
}

// FlushAll writes every dirty resident page back to the store.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, fr := range bp.frames {
		if fr.dirty {
			if err := bp.store.WritePage(id, &fr.page); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return bp.store.Sync()
}

// Stats returns the hit and miss counts since creation.
func (bp *BufferPool) Stats() (hits, misses uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// Evictions returns the number of frames evicted since creation.
func (bp *BufferPool) Evictions() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.evictions
}

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// ReadFailures returns the number of Fetch calls that failed reading from
// the backing store (corrupt pages and I/O errors).
func (bp *BufferPool) ReadFailures() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.readFailures
}

// VerifyStored reads page id directly from the backing store — bypassing
// and not populating the cache — and returns the store's verification
// error, if any. Against a FileStore this checks the stamped CRC32-C of
// the on-disk bytes; a MemStore always verifies clean.
func (bp *BufferPool) VerifyStored(id PageID) error {
	pg := new(Page)
	return bp.store.ReadPage(id, pg)
}

// Quarantine marks page id corrupt: subsequent Fetches fail fast with err
// (which should wrap ErrCorrupt) instead of touching the store. An
// unpinned resident frame is dropped without flushing; a pinned frame is
// left to its pinner and the quarantine applies to new fetches only.
func (bp *BufferPool) Quarantine(id PageID, err error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err == nil {
		err = &ErrPageCorrupt{Page: id, Reason: "quarantined"}
	}
	bp.quarantined[id] = err
	if fr, ok := bp.frames[id]; ok && fr.pins == 0 {
		if fr.elem != nil {
			bp.lru.Remove(fr.elem)
		}
		delete(bp.frames, id)
	}
}

// Quarantined returns the ids of currently quarantined pages, sorted.
func (bp *BufferPool) Quarantined() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make([]PageID, 0, len(bp.quarantined))
	for id := range bp.quarantined {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// FlushResident writes the resident copy of page id back to the store when
// the page is cached and unpinned, clearing any quarantine — the repair
// when the stored copy is corrupt but a good frame survives in memory. It reports whether a resident copy was written.
func (bp *BufferPool) FlushResident(id PageID) (bool, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || fr.pins > 0 {
		return false, nil
	}
	if err := bp.store.WritePage(id, &fr.page); err != nil {
		return false, err
	}
	fr.dirty = false
	delete(bp.quarantined, id)
	return true, bp.store.Sync()
}

// DropClean evicts every unpinned, clean resident frame, forcing
// subsequent fetches to re-read the store. The scrubber's cold sweeps and
// the bit-rot soak use it to make on-disk state authoritative.
func (bp *BufferPool) DropClean() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for id, fr := range bp.frames {
		if fr.pins == 0 && !fr.dirty {
			if fr.elem != nil {
				bp.lru.Remove(fr.elem)
			}
			delete(bp.frames, id)
			n++
		}
	}
	return n
}
