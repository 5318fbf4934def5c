package storage

import "sync"

// HeapFile stores variable-length records across a chain of slotted pages
// fetched through a BufferPool. It is the physical home of the engine's raw
// annotation text; records are inserted, read and deleted, never rewritten.
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
