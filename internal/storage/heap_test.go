package storage

import (
	"bytes"
	"fmt"
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

func TestHeapScan(t *testing.T) {
	h := newHeap(8)
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		rec := fmt.Sprintf("record-%03d", i)
		if _, err := h.Insert([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	got := map[string]bool{}
	err := h.Scan(func(rid RID, data []byte) bool {
		got[string(data)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("scanned %d records, want %d", len(got), len(want))
	}
	// Early termination.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestHeapUpdateInPlaceAndMove(t *testing.T) {
	h := newHeap(8)
	rid, _ := h.Insert([]byte("short"))
	// Fill the rest of the page so a grow-update must move.
	filler := bytes.Repeat([]byte("f"), 2000)
	for i := 0; i < 4; i++ {
		h.Insert(filler)
	}
	rid2, err := h.Update(rid, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 != rid {
		t.Errorf("shrink update moved the record: %v -> %v", rid, rid2)
	}
	big := bytes.Repeat([]byte("B"), 4000)
	rid3, err := h.Update(rid2, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid3)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after move Get = len %d, %v", len(got), err)
	}
	if rid3 != rid2 {
		// moved: old RID must now be dead
		if _, err := h.Get(rid2); err != ErrNoSuchRecord {
			t.Errorf("old RID still live after move: %v", err)
		}
	}
	if h.Len() != 5 {
		t.Errorf("Len = %d, want 5", h.Len())
	}
}

func TestHeapRejectsHugeRecords(t *testing.T) {
	h := newHeap(4)
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); err != ErrRecordTooLarge {
		t.Errorf("Insert = %v", err)
	}
	rid, _ := h.Insert([]byte("x"))
	if _, err := h.Update(rid, make([]byte, MaxRecordSize+1)); err != ErrRecordTooLarge {
		t.Errorf("Update = %v", err)
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
		case r.Intn(2) == 0: // delete
			i := r.Intn(len(order))
			rid := order[i]
			order = append(order[:i], order[i+1:]...)
			if err := h.Delete(rid); err != nil {
				t.Fatalf("Delete(%v): %v", rid, err)
			}
			delete(live, rid)
		default: // update
			i := r.Intn(len(order))
			rid := order[i]
			rec := make([]byte, r.Intn(400)+1)
			r.Read(rec)
			nrid, err := h.Update(rid, rec)
			if err != nil {
				t.Fatalf("Update(%v): %v", rid, err)
			}
			if nrid != rid {
				delete(live, rid)
				order[i] = nrid
			}
			live[nrid] = rec
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
	// Scan agrees with the model.
	n := 0
	h.Scan(func(rid RID, data []byte) bool {
		want, ok := live[rid]
		if !ok || !bytes.Equal(data, want) {
			t.Errorf("scan saw unexpected record at %v", rid)
		}
		n++
		return true
	})
	if n != len(live) {
		t.Errorf("scan count = %d, want %d", n, len(live))
	}
}
