package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

func newHeap(frames int) *HeapFile {
	return NewHeapFile(NewBufferPool(NewMemStore(), frames))
}

func TestHeapInsertGetDelete(t *testing.T) {
	h := newHeap(8)
	rid, err := h.Insert([]byte("swan goose"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || !bytes.Equal(got, []byte("swan goose")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err != ErrNoSuchRecord {
		t.Errorf("Get after delete = %v", err)
	}
	if h.Len() != 0 {
		t.Errorf("Len after delete = %d", h.Len())
	}
}

func TestHeapSpansPages(t *testing.T) {
	h := newHeap(4)
	rec := bytes.Repeat([]byte("p"), 3000)
	var rids []RID
	for i := 0; i < 10; i++ { // 10 * 3KB ≈ 4 pages
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if len(h.Pages()) < 4 {
		t.Errorf("pages = %d, want >= 4", len(h.Pages()))
	}
	for _, rid := range rids {
		if got, err := h.Get(rid); err != nil || len(got) != 3000 {
			t.Errorf("Get(%v) len %d, %v", rid, len(got), err)
		}
	}
}

func TestHeapRejectsHugeRecords(t *testing.T) {
	h := newHeap(4)
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); err != ErrRecordTooLarge {
		t.Errorf("Insert = %v", err)
	}
	if h.Len() != 0 || len(h.Pages()) != 0 {
		t.Errorf("rejected insert left %d records on %d pages", h.Len(), len(h.Pages()))
	}
}

func TestHeapRandomizedWorkload(t *testing.T) {
	h := newHeap(16)
	r := rand.New(rand.NewSource(42))
	live := map[RID][]byte{}
	var order []RID
	for op := 0; op < 2000; op++ {
		switch {
		case len(order) == 0 || r.Intn(10) < 6: // insert
			rec := make([]byte, r.Intn(200)+1)
			r.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = rec
			order = append(order, rid)
		default: // delete
			i := r.Intn(len(order))
			rid := order[i]
			order = append(order[:i], order[i+1:]...)
			if err := h.Delete(rid); err != nil {
				t.Fatalf("Delete(%v): %v", rid, err)
			}
			delete(live, rid)
		}
	}
	if h.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(live))
	}
	for rid, want := range live {
		got, err := h.Get(rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) mismatch: %v", rid, err)
		}
	}
	// Every page holds exactly the modeled records.
	n := 0
	for _, pid := range h.Pages() {
		err := h.ViewPage(pid, func(pg *Page) error {
			return pg.Records(func(slot uint16, data []byte) bool {
				want, ok := live[RID{Page: pid, Slot: slot}]
				if !ok || !bytes.Equal(data, want) {
					t.Errorf("page %d slot %d holds an unexpected record", pid, slot)
				}
				n++
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != len(live) {
		t.Errorf("pages hold %d records, want %d", n, len(live))
	}
}
