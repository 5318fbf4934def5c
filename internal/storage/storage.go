// Package storage implements the storage substrate underneath the
// InsightNotes engine: 8 KiB slotted pages, pluggable page stores
// (memory-backed and file-backed), a pinning buffer pool with LRU eviction,
// heap files for the raw annotation text, an ordered B+tree for secondary
// indexes, and an order-preserving key encoding for index keys.
//
// The paper's prototype extends PostgreSQL; this package is the substitute
// host storage layer (see DESIGN.md §4). Table rows and their indexes live
// in memory (internal/catalog); the page file is an ephemeral paging
// layer, recreated on open. The checkpoint and the WAL are the durable
// representation.
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the size of every page in bytes.
const PageSize = 8192

// PageID identifies a page within a store.
type PageID uint32

// InvalidPageID is the sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// RID (record identifier) locates a record: a page and a slot within it.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Errors returned by the storage layer.
var (
	// ErrPageFull indicates that a page has no room for the record.
	ErrPageFull = errors.New("storage: page full")
	// ErrNoSuchRecord indicates a stale or deleted RID.
	ErrNoSuchRecord = errors.New("storage: no such record")
	// ErrRecordTooLarge indicates a record exceeding the page payload limit.
	ErrRecordTooLarge = errors.New("storage: record too large for a page")
	// ErrClosed indicates use of a closed store.
	ErrClosed = errors.New("storage: store is closed")

	// ErrCorrupt is the sentinel matched by errors.Is for any detected
	// page corruption; the concrete error is an *ErrPageCorrupt carrying
	// the page id and the violated invariant.
	ErrCorrupt = errors.New("storage: page corrupt")
)

// ErrPageCorrupt reports a page that failed checksum or structural
// verification. Want and Got are CRC32-C values for checksum mismatches
// (zero for structural faults); Reason names the violated invariant. Page
// is InvalidPageID when the fault was detected by a Page method that does
// not know its own id — layers holding the id fill it in.
type ErrPageCorrupt struct {
	Page      PageID
	Want, Got uint32
	Reason    string
}

// Error implements error.
func (e *ErrPageCorrupt) Error() string {
	where := "page"
	if e.Page != InvalidPageID {
		where = fmt.Sprintf("page %d", e.Page)
	}
	if e.Want != e.Got {
		return fmt.Sprintf("storage: %s corrupt: %s (want crc 0x%08x, got 0x%08x)", where, e.Reason, e.Want, e.Got)
	}
	return fmt.Sprintf("storage: %s corrupt: %s", where, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) match every page-corruption error.
func (e *ErrPageCorrupt) Is(target error) bool { return target == ErrCorrupt }

// withPage fills the page id into structural corruption errors raised by
// Page methods, which do not know which page they operate on.
func withPage(err error, id PageID) error {
	var pc *ErrPageCorrupt
	if errors.As(err, &pc) && pc.Page == InvalidPageID {
		pc.Page = id
	}
	return err
}

// MaxRecordSize is the largest record a heap page can hold.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize
