package storage

import (
	"bytes"
	"fmt"
	"testing"
)

func newPage() *Page {
	var p Page
	p.Reset()
	return &p
}

func TestPageInsertGet(t *testing.T) {
	p := newPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []uint16
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Errorf("Get(%d) = %q, %v; want %q", s, got, err, recs[i])
		}
	}
	if p.NumSlots() != 3 {
		t.Errorf("NumSlots = %d", p.NumSlots())
	}
}

func TestPageDeleteAndSlotReuse(t *testing.T) {
	p := newPage()
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s0); err != ErrNoSuchRecord {
		t.Errorf("Get(deleted) = %v, want ErrNoSuchRecord", err)
	}
	if err := p.Delete(s0); err != ErrNoSuchRecord {
		t.Errorf("double Delete = %v, want ErrNoSuchRecord", err)
	}
	s2, err := p.Insert([]byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s0 {
		t.Errorf("tombstone slot not reused: got %d, want %d", s2, s0)
	}
	if got, _ := p.Get(s1); !bytes.Equal(got, []byte("two")) {
		t.Errorf("survivor corrupted: %q", got)
	}
	if p.NumSlots() != 2 {
		t.Errorf("NumSlots = %d, want 2 (reuse)", p.NumSlots())
	}
}

func TestPageFullKeepsRecords(t *testing.T) {
	p := newPage()
	rec := bytes.Repeat([]byte("x"), 1000)
	var slots []uint16
	for {
		s, err := p.Insert(rec)
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if len(slots) != 8 { // 8 * 1004ish bytes fits, 9th doesn't
		t.Logf("filled %d records", len(slots))
	}
	// Deleting tombstones slots without reclaiming their bytes: a record
	// needing fresh data space still does not fit.
	p.Delete(slots[0])
	p.Delete(slots[1])
	if _, err := p.Insert(bytes.Repeat([]byte("y"), 1800)); err != ErrPageFull {
		t.Fatalf("Insert into a full page after deletes = %v, want ErrPageFull", err)
	}
	// Remaining records intact.
	for _, s := range slots[2:] {
		if got, err := p.Get(s); err != nil || !bytes.Equal(got, rec) {
			t.Errorf("slot %d corrupted after deletes: %v", s, err)
		}
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPageRecordTooLarge(t *testing.T) {
	p := newPage()
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err != ErrRecordTooLarge {
		t.Errorf("Insert(huge) = %v, want ErrRecordTooLarge", err)
	}
	// Max-size record fits on an empty page.
	p2 := newPage()
	if _, err := p2.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Errorf("Insert(max) = %v", err)
	}
}

func TestPageRecordsIteration(t *testing.T) {
	p := newPage()
	for i := 0; i < 5; i++ {
		p.Insert([]byte{byte(i)})
	}
	p.Delete(2)
	var seen []byte
	p.Records(func(slot uint16, data []byte) bool {
		seen = append(seen, data[0])
		return true
	})
	want := []byte{0, 1, 3, 4}
	if !bytes.Equal(seen, want) {
		t.Errorf("Records = %v, want %v", seen, want)
	}
	// Early stop.
	count := 0
	p.Records(func(uint16, []byte) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestPageGetInvalidSlot(t *testing.T) {
	p := newPage()
	if _, err := p.Get(0); err != ErrNoSuchRecord {
		t.Errorf("Get(0) on empty page = %v", err)
	}
	if err := p.Delete(7); err != ErrNoSuchRecord {
		t.Errorf("Delete(7) = %v", err)
	}
}

func TestPageManySmallRecords(t *testing.T) {
	p := newPage()
	n := 0
	for {
		rec := []byte(fmt.Sprintf("r%04d", n))
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no records fit")
	}
	// All retrievable and distinct.
	seen := map[string]bool{}
	p.Records(func(_ uint16, data []byte) bool {
		seen[string(data)] = true
		return true
	})
	if len(seen) != n {
		t.Errorf("distinct records = %d, want %d", len(seen), n)
	}
}
