package storage

import (
	"errors"
	"path/filepath"
	"testing"

	"insightnotes/internal/failpoint"
)

// TestChecksumRoundTrip verifies a stamped page re-verifies cleanly and
// that any single flipped payload byte fails verification.
func TestChecksumRoundTrip(t *testing.T) {
	var p Page
	p.Reset()
	if _, err := p.Insert([]byte("hello checksum")); err != nil {
		t.Fatal(err)
	}
	p.StampChecksum()
	if err := p.VerifyChecksum(3); err != nil {
		t.Fatalf("clean page failed verification: %v", err)
	}
	// Flip a byte in each region of the page: header, slot directory, data.
	for _, off := range []int{0, pageHeaderSize, PageSize - 1} {
		q := p
		q[off] ^= 0x01
		err := q.VerifyChecksum(3)
		if err == nil {
			t.Fatalf("flip at %d went undetected", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not match ErrCorrupt", off, err)
		}
	}
	// The structured error carries the page id and both sums.
	q := p
	q[PageSize-1] ^= 0xFF
	var pc *ErrPageCorrupt
	if err := q.VerifyChecksum(7); !errors.As(err, &pc) {
		t.Fatalf("error %v is not *ErrPageCorrupt", err)
	} else if pc.Page != 7 || pc.Want == pc.Got {
		t.Fatalf("structured error = %+v", pc)
	}
}

// TestChecksumBadFormatByte verifies the format byte is checked before the
// checksum, so a page of zeroes (or from a future format) is rejected with
// a format error rather than a confusing sum mismatch.
func TestChecksumBadFormatByte(t *testing.T) {
	var p Page
	p.Reset()
	p[formatOff] = 0x7F
	p.StampChecksum()
	err := p.VerifyChecksum(0)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad format byte: %v", err)
	}
}

// TestFileStoreDetectsOnDiskFlip writes a page through a FileStore, flips
// one byte of the file underneath it, and verifies the next read returns a
// structured ErrPageCorrupt rather than garbage.
func TestFileStoreDetectsOnDiskFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Allocate()
	var p Page
	p.Reset()
	p.Insert([]byte("soon to rot"))
	if err := fs.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	var back Page
	if err := fs.ReadPage(id, &back); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	// Flip one payload byte on disk behind the store's back.
	f := fs.f
	buf := make([]byte, 1)
	off := int64(id)*PageSize + PageSize - 1
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	err = fs.ReadPage(id, &back)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("on-disk flip: read = %v", err)
	}
	var pc *ErrPageCorrupt
	if !errors.As(err, &pc) || pc.Page != id {
		t.Fatalf("structured error = %v", err)
	}
}

// TestFileStoreReadBitrotFailpoint verifies the injected-bit-rot failpoint
// corrupts reads in a way the checksum catches, and that disabling it
// restores clean reads (the injection happens after the disk read).
func TestFileStoreReadBitrotFailpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Allocate()
	var p Page
	p.Reset()
	p.Insert([]byte("bitrot target"))
	if err := fs.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	failpoint.EnableError(failpoint.StorageReadBitrot, errors.New("inject"))
	defer failpoint.Disable(failpoint.StorageReadBitrot)
	var back Page
	if err := fs.ReadPage(id, &back); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("injected bit rot: read = %v", err)
	}
	failpoint.Disable(failpoint.StorageReadBitrot)
	if err := fs.ReadPage(id, &back); err != nil {
		t.Fatalf("read after disabling failpoint: %v", err)
	}
}

// TestFileStoreFlushCorruptFailpoint verifies the torn-write failpoint
// garbles the flushed bytes after the stamp so the next read fails, while
// the caller's in-memory page is untouched.
func TestFileStoreFlushCorruptFailpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Allocate()
	var p Page
	p.Reset()
	p.Insert([]byte("torn write"))
	before := p
	failpoint.EnableError(failpoint.StorageFlushCorrupt, errors.New("inject"))
	if err := fs.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	failpoint.Disable(failpoint.StorageFlushCorrupt)
	if p != before {
		t.Fatal("WritePage mutated the caller's page")
	}
	var back Page
	if err := fs.ReadPage(id, &back); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read after torn write = %v", err)
	}
	// A clean re-flush repairs the stored copy.
	if err := fs.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadPage(id, &back); err != nil {
		t.Fatalf("read after repair flush: %v", err)
	}
}

// TestPageVerifyStructural exercises Verify on hand-corrupted slot
// directories: bad format, insane slot count, directory/data overlap,
// out-of-region extents, fat tombstones, and overlapping records.
func TestPageVerifyStructural(t *testing.T) {
	mk := func() *Page {
		var p Page
		p.Reset()
		p.Insert([]byte("alpha"))
		p.Insert([]byte("beta"))
		return &p
	}
	if err := mk().Verify(); err != nil {
		t.Fatalf("clean page: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Page)
	}{
		{"bad format byte", func(p *Page) { p[formatOff] = 0x00 }},
		{"slot count over capacity", func(p *Page) { p.setSlotCount(maxSlots + 1) }},
		{"freeEnd past page end", func(p *Page) { p.setFreeEnd(PageSize) }}, // slots exist but freeEnd says no data
		{"directory overlaps data", func(p *Page) { p.setFreeEnd(pageHeaderSize) }},
		{"extent outside data region", func(p *Page) { p.setSlot(0, pageHeaderSize, 4) }},
		{"extent past page end", func(p *Page) { p.setSlot(0, PageSize-2, 8) }},
		{"fat tombstone", func(p *Page) { p.setSlot(0, tombstoneOffset, 3) }},
		{"overlapping records", func(p *Page) {
			off, _ := p.slot(1)
			p.setSlot(0, off+1, 4)
		}},
	}
	for _, tc := range cases {
		p := mk()
		tc.mutate(p)
		err := p.Verify()
		if err == nil {
			t.Errorf("%s: Verify passed", tc.name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not match ErrCorrupt", tc.name, err)
		}
	}
}
