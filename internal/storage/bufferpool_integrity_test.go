package storage

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"insightnotes/internal/failpoint"
)

// newFilePool builds a FileStore-backed pool with one page holding rec.
func newFilePool(t *testing.T, capacity int, rec []byte) (*BufferPool, *FileStore, PageID) {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	pool := NewBufferPool(fs, capacity)
	id, pg, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return pool, fs, id
}

// TestBufferPoolReadFailure verifies a corrupt backing read fails the
// Fetch with the structured error, leaves no frame pinned or resident,
// advances the miss and read-failure counters, and quarantines the page so
// the next Fetch fails fast without re-reading the store.
func TestBufferPoolReadFailure(t *testing.T) {
	pool, _, id := newFilePool(t, 4, []byte("will rot"))
	if n := pool.DropClean(); n != 1 {
		t.Fatalf("DropClean = %d, want 1", n)
	}

	failpoint.EnableError(failpoint.StorageReadBitrot, errors.New("inject"))
	_, err := pool.Fetch(id)
	failpoint.Disable(failpoint.StorageReadBitrot)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Fetch of rotten page = %v", err)
	}
	if pool.Resident() != 0 {
		t.Fatalf("failed Fetch left %d resident frames", pool.Resident())
	}
	if rf := pool.ReadFailures(); rf != 1 {
		t.Fatalf("ReadFailures = %d, want 1", rf)
	}
	_, misses := pool.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if q := pool.Quarantined(); len(q) != 1 || q[0] != id {
		t.Fatalf("Quarantined = %v, want [%d]", q, id)
	}

	// Quarantined: fails fast with the cached error, no new store read, so
	// the miss and read-failure counters stay put.
	if _, err := pool.Fetch(id); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Fetch of quarantined page = %v", err)
	}
	if _, misses := pool.Stats(); misses != 1 {
		t.Fatal("quarantined fetch hit the store")
	}
	if rf := pool.ReadFailures(); rf != 1 {
		t.Fatalf("ReadFailures after quarantined fetch = %d, want 1", rf)
	}

}

// TestBufferPoolReadFailureNoDeadlock verifies concurrent fetches of a
// corrupt page all fail and release the pool lock — a regression guard for
// the error path forgetting to unwind frame bookkeeping.
func TestBufferPoolReadFailureNoDeadlock(t *testing.T) {
	pool, _, id := newFilePool(t, 4, []byte("contended"))
	pool.DropClean()
	failpoint.EnableError(failpoint.StorageReadBitrot, errors.New("inject"))
	defer failpoint.Disable(failpoint.StorageReadBitrot)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Fetch(id); err == nil {
				t.Error("concurrent Fetch of corrupt page succeeded")
			}
		}()
	}
	wg.Wait()
	// Pool still fully usable: allocate and fetch another page.
	id2, pg, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg.Insert([]byte("alive"))
	pool.Unpin(id2, true)
	if _, err := pool.Fetch(id2); err != nil {
		t.Fatalf("pool unusable after read failures: %v", err)
	}
	pool.Unpin(id2, false)
}

// TestBufferPoolVerifyStoredBypassesCache verifies VerifyStored checks the
// on-disk bytes without populating the cache, catching rot that a resident
// clean frame would mask.
func TestBufferPoolVerifyStoredBypassesCache(t *testing.T) {
	pool, fs, id := newFilePool(t, 4, []byte("resident"))
	// Frame is resident and clean; corrupt the disk copy underneath it.
	buf := []byte{0}
	off := int64(id)*PageSize + PageSize - 1
	fs.f.ReadAt(buf, off)
	buf[0] ^= 0xFF
	fs.f.WriteAt(buf, off)

	// A Fetch serves the clean resident frame...
	if _, err := pool.Fetch(id); err != nil {
		t.Fatalf("resident fetch: %v", err)
	}
	pool.Unpin(id, false)
	// ...but VerifyStored sees the rot, and does not cache anything new.
	err := pool.VerifyStored(id)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyStored = %v", err)
	}
	if pool.Resident() != 1 {
		t.Fatalf("VerifyStored changed residency: %d", pool.Resident())
	}
}

// TestBufferPoolFlushResidentRepairs verifies the cheapest repair: a
// surviving clean frame flushed over a rotten stored copy clears the
// quarantine and restores verifiable reads.
func TestBufferPoolFlushResidentRepairs(t *testing.T) {
	pool, fs, id := newFilePool(t, 4, []byte("survivor"))
	buf := []byte{0}
	off := int64(id)*PageSize + PageSize - 1
	fs.f.ReadAt(buf, off)
	buf[0] ^= 0xFF
	fs.f.WriteAt(buf, off)
	if err := pool.VerifyStored(id); err == nil {
		t.Fatal("stored copy should be rotten")
	}
	// The clean frame is still resident: flushing it over the rot repairs.
	if ok, err := pool.FlushResident(id); err != nil || !ok {
		t.Fatalf("FlushResident = %v, %v; want true, nil", ok, err)
	}
	if err := pool.VerifyStored(id); err != nil {
		t.Fatalf("stored copy after resident flush: %v", err)
	}

	// Rot it again, then quarantine — which drops the unpinned frame, so
	// FlushResident has nothing to write and reports false.
	fs.f.WriteAt(buf, off) // buf still holds the flipped byte
	pool.Quarantine(id, nil)
	if ok, err := pool.FlushResident(id); err != nil || ok {
		t.Fatalf("FlushResident with no frame = %v, %v; want false, nil", ok, err)
	}
	if _, err := pool.Fetch(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Fetch of quarantined page = %v, want ErrCorrupt", err)
	}
}
