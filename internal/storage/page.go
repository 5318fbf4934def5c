package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// Slotted page layout:
//
//	[0:2)   slot count (uint16)
//	[2:4)   freeEnd — offset of the lowest byte used by record data;
//	        data grows downward from PageSize, slots grow upward from the
//	        header.
//	[4:8)   CRC32-C checksum over the rest of the page, stamped by stores
//	        on flush and verified on read (zero / stale in memory).
//	[8]     page format byte (pageFormatV1).
//	[9:12)  reserved (zero).
//	[12:..) slot array, 4 bytes per slot: record offset (uint16),
//	        record length (uint16). A slot with offset == tombstoneOffset
//	        is deleted and may be reused.
const (
	pageHeaderSize  = 12
	slotSize        = 4
	tombstoneOffset = uint16(0xFFFF)

	checksumOff  = 4
	formatOff    = 8
	pageFormatV1 = 0x01

	// maxSlots bounds the slot directory: a slot index at or past it would
	// address bytes outside the page, so a larger stored slot count is
	// corruption by definition.
	maxSlots = (PageSize - pageHeaderSize) / slotSize
)

// castagnoli is the CRC32-C polynomial table; Go's implementation uses the
// hardware CRC instruction where available, so per-page verification is a
// small fraction of the 8 KiB read cost.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Page is one fixed-size slotted page. The zero value is not initialized;
// call Reset (or obtain pages from a store, which returns them reset).
type Page [PageSize]byte

// Reset initializes p as an empty slotted page.
func (p *Page) Reset() {
	for i := range p {
		p[i] = 0
	}
	p.setSlotCount(0)
	p.setFreeEnd(PageSize)
	p[formatOff] = pageFormatV1
}

// computeChecksum hashes the whole page except the checksum field itself.
func (p *Page) computeChecksum() uint32 {
	crc := crc32.Update(0, castagnoli, p[:checksumOff])
	return crc32.Update(crc, castagnoli, p[checksumOff+4:])
}

// StampChecksum writes the current payload checksum into the header.
// Stores call it when flushing a page to stable storage; the in-memory
// copy of a page carries a stale stamp between flushes.
func (p *Page) StampChecksum() {
	binary.LittleEndian.PutUint32(p[checksumOff:checksumOff+4], p.computeChecksum())
}

// StoredChecksum returns the checksum stamped in the header.
func (p *Page) StoredChecksum() uint32 {
	return binary.LittleEndian.Uint32(p[checksumOff : checksumOff+4])
}

// VerifyChecksum checks the format byte and the stamped checksum against
// the page contents. It is meaningful only for bytes read back from a
// stamping store (FileStore); in-memory pages carry stale stamps.
func (p *Page) VerifyChecksum(id PageID) error {
	if p[formatOff] != pageFormatV1 {
		return &ErrPageCorrupt{Page: id, Reason: fmt.Sprintf("bad page format byte 0x%02x", p[formatOff])}
	}
	want, got := p.StoredChecksum(), p.computeChecksum()
	if want != got {
		return &ErrPageCorrupt{Page: id, Want: want, Got: got, Reason: "checksum mismatch"}
	}
	return nil
}

// corrupt builds a structural corruption error. Page methods do not know
// their own page id; callers holding one fill it in via withPage.
func (p *Page) corrupt(format string, args ...any) error {
	return &ErrPageCorrupt{Page: InvalidPageID, Reason: fmt.Sprintf(format, args...)}
}

// checkExtent validates that a live slot's record lies inside the page.
func (p *Page) checkExtent(slot, off, length uint16) error {
	if int(off) < pageHeaderSize || int(off)+int(length) > PageSize {
		return p.corrupt("slot %d extent [%d,%d) outside page", slot, off, int(off)+int(length))
	}
	return nil
}

func (p *Page) slotCount() uint16     { return binary.LittleEndian.Uint16(p[0:2]) }
func (p *Page) setSlotCount(n uint16) { binary.LittleEndian.PutUint16(p[0:2], n) }
func (p *Page) freeEnd() uint16       { return binary.LittleEndian.Uint16(p[2:4]) }
func (p *Page) setFreeEnd(v uint16) {
	binary.LittleEndian.PutUint16(p[2:4], v)
}

func (p *Page) slot(i uint16) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p[base : base+2]),
		binary.LittleEndian.Uint16(p[base+2 : base+4])
}

func (p *Page) setSlot(i, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], off)
	binary.LittleEndian.PutUint16(p[base+2:base+4], length)
}

// NumSlots returns the number of slots ever allocated on the page,
// including tombstones.
func (p *Page) NumSlots() uint16 { return p.slotCount() }

// FreeSpace returns the bytes available for a new record, accounting for
// the slot entry a fresh insert would need. Reusable tombstone slots make
// inserts slightly cheaper than this lower bound.
func (p *Page) FreeSpace() int {
	used := pageHeaderSize + int(p.slotCount())*slotSize
	free := int(p.freeEnd()) - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores record in the page and returns its slot number. It reuses a
// tombstoned slot when one exists. Returns ErrPageFull when the record does
// not fit and ErrRecordTooLarge when it could never fit on any page.
func (p *Page) Insert(record []byte) (uint16, error) {
	if len(record) > MaxRecordSize {
		return 0, ErrRecordTooLarge
	}
	// Find a reusable tombstone slot.
	reuse := int32(-1)
	n := p.slotCount()
	if n > maxSlots {
		return 0, p.corrupt("slot count %d exceeds page capacity %d", n, maxSlots)
	}
	for i := uint16(0); i < n; i++ {
		if off, _ := p.slot(i); off == tombstoneOffset {
			reuse = int32(i)
			break
		}
	}
	needSlot := slotSize
	if reuse >= 0 {
		needSlot = 0
	}
	used := pageHeaderSize + int(n)*slotSize
	if int(p.freeEnd())-used-needSlot < len(record) {
		return 0, ErrPageFull
	}
	newEnd := p.freeEnd() - uint16(len(record))
	copy(p[newEnd:], record)
	p.setFreeEnd(newEnd)
	var slot uint16
	if reuse >= 0 {
		slot = uint16(reuse)
	} else {
		slot = n
		p.setSlotCount(n + 1)
	}
	p.setSlot(slot, newEnd, uint16(len(record)))
	return slot, nil
}

// Get returns the record stored at slot. The returned slice aliases the
// page; callers must copy it if they retain it past unpinning the page.
// A slot directory pointing outside the page returns a structural
// ErrPageCorrupt instead of slicing out of bounds.
func (p *Page) Get(slot uint16) ([]byte, error) {
	if slot >= p.slotCount() {
		return nil, ErrNoSuchRecord
	}
	if slot >= maxSlots {
		return nil, p.corrupt("slot count %d exceeds page capacity %d", p.slotCount(), maxSlots)
	}
	off, length := p.slot(slot)
	if off == tombstoneOffset {
		return nil, ErrNoSuchRecord
	}
	if err := p.checkExtent(slot, off, length); err != nil {
		return nil, err
	}
	return p[off : int(off)+int(length)], nil
}

// Delete tombstones the record at slot. Its slot is reused by a later
// Insert; its data bytes are not reclaimed.
func (p *Page) Delete(slot uint16) error {
	if slot >= p.slotCount() {
		return ErrNoSuchRecord
	}
	if slot >= maxSlots {
		return p.corrupt("slot count %d exceeds page capacity %d", p.slotCount(), maxSlots)
	}
	if off, _ := p.slot(slot); off == tombstoneOffset {
		return ErrNoSuchRecord
	}
	p.setSlot(slot, tombstoneOffset, 0)
	return nil
}

// Records calls fn for every live record on the page, in slot order.
// The data slice aliases the page. A corrupt slot directory stops the
// iteration with a structural ErrPageCorrupt.
func (p *Page) Records(fn func(slot uint16, data []byte) bool) error {
	n := p.slotCount()
	if n > maxSlots {
		return p.corrupt("slot count %d exceeds page capacity %d", n, maxSlots)
	}
	for i := uint16(0); i < n; i++ {
		off, length := p.slot(i)
		if off == tombstoneOffset {
			continue
		}
		if err := p.checkExtent(i, off, length); err != nil {
			return err
		}
		if !fn(i, p[off:int(off)+int(length)]) {
			return nil
		}
	}
	return nil
}

// Verify checks the page's structural invariants: the format byte, header
// bounds, slot-directory size, per-slot extents, tombstone shape, and that
// no two live records overlap. It does not check the checksum (see
// VerifyChecksum) — structural verification applies to in-memory pages too.
func (p *Page) Verify() error {
	if p[formatOff] != pageFormatV1 {
		return p.corrupt("bad page format byte 0x%02x", p[formatOff])
	}
	fe := int(p.freeEnd())
	if fe < pageHeaderSize || fe > PageSize {
		return p.corrupt("freeEnd %d outside page", fe)
	}
	n := p.slotCount()
	if n > maxSlots {
		return p.corrupt("slot count %d exceeds page capacity %d", n, maxSlots)
	}
	if pageHeaderSize+int(n)*slotSize > fe {
		return p.corrupt("slot directory (%d slots) overlaps data region (freeEnd %d)", n, fe)
	}
	type extent struct {
		off, end int
		slot     uint16
	}
	exts := make([]extent, 0, n)
	for i := uint16(0); i < n; i++ {
		off, length := p.slot(i)
		if off == tombstoneOffset {
			if length != 0 {
				return p.corrupt("tombstone slot %d has length %d", i, length)
			}
			continue
		}
		if int(off) < fe || int(off)+int(length) > PageSize {
			return p.corrupt("slot %d extent [%d,%d) outside data region [%d,%d)",
				i, off, int(off)+int(length), fe, PageSize)
		}
		if length == 0 {
			// A zero-length record occupies no bytes; it cannot overlap
			// anything, and including it would falsely flag a neighbor
			// starting at the same offset.
			continue
		}
		exts = append(exts, extent{int(off), int(off) + int(length), i})
	}
	sort.Slice(exts, func(a, b int) bool { return exts[a].off < exts[b].off })
	for j := 1; j < len(exts); j++ {
		if exts[j].off < exts[j-1].end {
			return p.corrupt("records at slots %d and %d overlap", exts[j-1].slot, exts[j].slot)
		}
	}
	return nil
}
