package storage

import (
	"fmt"
	"sync"
)

// HeapFile stores variable-length records across a chain of slotted pages
// fetched through a BufferPool. It is the physical home of both data tuples
// and raw annotations in the engine.
//
// A HeapFile owns the set of page ids it allocated from the shared pool;
// the set is tracked in memory only.
type HeapFile struct {
	mu    sync.Mutex
	pool  *BufferPool
	pages []PageID
	// freeHint maps a page position in pages to a rough free-byte count,
	// letting inserts skip full pages without fetching them.
	freeHint map[PageID]int
	records  int
}

// NewHeapFile creates an empty heap over pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, freeHint: make(map[PageID]int)}
}

// Pages returns the page ids backing the heap, in order.
func (h *HeapFile) Pages() []PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PageID(nil), h.pages...)
}

// Len returns the number of live records.
func (h *HeapFile) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.records
}

// NumPages returns the number of pages backing the heap — the sequential
// I/O volume of a full scan, used by the planner's cost model.
func (h *HeapFile) NumPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}

// Insert stores record and returns its RID.
func (h *HeapFile) Insert(record []byte) (RID, error) {
	if len(record) > MaxRecordSize {
		return RID{}, ErrRecordTooLarge
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Try pages whose hint says the record fits, newest first (recent pages
	// are most likely to have room and be cached).
	for i := len(h.pages) - 1; i >= 0; i-- {
		pid := h.pages[i]
		if h.freeHint[pid] < len(record) {
			continue
		}
		rid, ok, err := h.tryInsert(pid, record)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	// Allocate a fresh page.
	pid, pg, err := h.pool.Allocate()
	if err != nil {
		return RID{}, err
	}
	slot, err := pg.Insert(record)
	if err != nil {
		h.pool.Unpin(pid, false)
		return RID{}, err
	}
	h.freeHint[pid] = pg.FreeSpace()
	if err := h.pool.Unpin(pid, true); err != nil {
		return RID{}, err
	}
	h.pages = append(h.pages, pid)
	h.records++
	return RID{Page: pid, Slot: slot}, nil
}

// tryInsert attempts an insert into pid, updating the free hint.
func (h *HeapFile) tryInsert(pid PageID, record []byte) (RID, bool, error) {
	pg, err := h.pool.Fetch(pid)
	if err != nil {
		return RID{}, false, err
	}
	slot, err := pg.Insert(record)
	if err == ErrPageFull {
		h.freeHint[pid] = pg.FreeSpace()
		return RID{}, false, h.pool.Unpin(pid, false)
	}
	if err != nil {
		h.pool.Unpin(pid, false)
		return RID{}, false, err
	}
	h.freeHint[pid] = pg.FreeSpace()
	if err := h.pool.Unpin(pid, true); err != nil {
		return RID{}, false, err
	}
	h.records++
	return RID{Page: pid, Slot: slot}, true, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	data, err := pg.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return nil, withPage(err, rid.Page)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, h.pool.Unpin(rid.Page, false)
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	if err := pg.Delete(rid.Slot); err != nil {
		h.pool.Unpin(rid.Page, false)
		return withPage(err, rid.Page)
	}
	h.freeHint[rid.Page] = pg.FreeSpace()
	h.records--
	return h.pool.Unpin(rid.Page, true)
}

// Update replaces the record at rid in place when possible; when the new
// version does not fit on its page the record is moved and the new RID is
// returned. Callers must treat the returned RID as authoritative.
func (h *HeapFile) Update(rid RID, record []byte) (RID, error) {
	if len(record) > MaxRecordSize {
		return RID{}, ErrRecordTooLarge
	}
	h.mu.Lock()
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		h.mu.Unlock()
		return RID{}, err
	}
	err = pg.Update(rid.Slot, record)
	switch err {
	case nil:
		h.freeHint[rid.Page] = pg.FreeSpace()
		uerr := h.pool.Unpin(rid.Page, true)
		h.mu.Unlock()
		return rid, uerr
	case ErrPageFull:
		// Move: delete here, reinsert elsewhere.
		if derr := pg.Delete(rid.Slot); derr != nil {
			h.pool.Unpin(rid.Page, false)
			h.mu.Unlock()
			return RID{}, derr
		}
		h.freeHint[rid.Page] = pg.FreeSpace()
		if uerr := h.pool.Unpin(rid.Page, true); uerr != nil {
			h.mu.Unlock()
			return RID{}, uerr
		}
		h.records-- // Insert will re-increment
		h.mu.Unlock()
		return h.Insert(record)
	default:
		h.pool.Unpin(rid.Page, false)
		h.mu.Unlock()
		return RID{}, withPage(err, rid.Page)
	}
}

// Scan calls fn for every live record in heap order. The data slice passed
// to fn aliases pool memory and must not be retained; fn returning false
// stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, data []byte) bool) error {
	h.mu.Lock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.Unlock()
	for _, pid := range pages {
		pg, err := h.pool.Fetch(pid)
		if err != nil {
			return err
		}
		stop := false
		rerr := pg.Records(func(slot uint16, data []byte) bool {
			if !fn(RID{Page: pid, Slot: slot}, data) {
				stop = true
				return false
			}
			return true
		})
		if err := h.pool.Unpin(pid, false); err != nil {
			return err
		}
		if rerr != nil {
			return withPage(rerr, pid)
		}
		if stop {
			return nil
		}
	}
	return nil
}

// ViewPage pins page pid, calls fn with read-only access, and unpins it.
// Structural corruption errors from fn gain the page id.
func (h *HeapFile) ViewPage(pid PageID, fn func(pg *Page) error) error {
	pg, err := h.pool.Fetch(pid)
	if err != nil {
		return err
	}
	ferr := fn(pg)
	if uerr := h.pool.Unpin(pid, false); uerr != nil {
		return uerr
	}
	if ferr != nil {
		return withPage(ferr, pid)
	}
	return nil
}

// String summarizes the heap for debugging.
func (h *HeapFile) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf("heap{pages: %d, records: %d}", len(h.pages), h.records)
}
