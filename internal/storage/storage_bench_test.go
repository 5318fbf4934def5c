package storage

import (
	"testing"

	"insightnotes/internal/types"
)

func BenchmarkPageInsert(b *testing.B) {
	rec := []byte("a medium sized heap record for benchmarking purposes")
	var p Page
	p.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(rec); err == ErrPageFull {
			p.Reset()
		}
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	h := NewHeapFile(NewBufferPool(NewMemStore(), 256))
	rec := []byte("a medium sized heap record for benchmarking purposes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	bt := NewBTree()
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = EncodeKey(nil, types.NewInt(int64(i*7919%100000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(keys[i%len(keys)], uint64(i))
	}
}

func BenchmarkBTreeSeek(b *testing.B) {
	bt := NewBTree()
	const n = 100000
	for i := 0; i < n; i++ {
		bt.Insert(EncodeKey(nil, types.NewInt(int64(i))), uint64(i))
	}
	probes := make([][]byte, 256)
	for i := range probes {
		probes[i] = EncodeKey(nil, types.NewInt(int64(i*389%n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := bt.Seek(probes[i%len(probes)]); len(got) != 1 {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkEncodeKey(b *testing.B) {
	v := types.NewString("anser cygnoides swan goose")
	buf := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = EncodeKey(buf[:0], v)
	}
}

func BenchmarkBufferPoolFetch(b *testing.B) {
	store := NewMemStore()
	bp := NewBufferPool(store, 64)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, _, err := bp.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(id, true)
		ids = append(ids, id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if _, err := bp.Fetch(id); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(id, false)
	}
}

// BenchmarkPageChecksum isolates the integrity tax: one CRC32-C
// computation over a full 8 KiB page — the cost WritePage adds per flush
// and ReadPage adds per miss (E17).
func BenchmarkPageChecksum(b *testing.B) {
	var p Page
	p.Reset()
	for p.FreeSpace() > 64 {
		p.Insert([]byte("a medium sized heap record for benchmarking purposes"))
	}
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StampChecksum()
	}
}

// BenchmarkFileStoreReadPage measures the full verified read path: one
// 8 KiB pread plus checksum verification (E17). Compare against
// BenchmarkPageChecksum to see the verification share.
func BenchmarkFileStoreReadPage(b *testing.B) {
	fs, err := OpenFileStore(b.TempDir() + "/pages.db")
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Allocate()
	var p Page
	p.Reset()
	for p.FreeSpace() > 64 {
		p.Insert([]byte("a medium sized heap record for benchmarking purposes"))
	}
	if err := fs.WritePage(id, &p); err != nil {
		b.Fatal(err)
	}
	var dst Page
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.ReadPage(id, &dst); err != nil {
			b.Fatal(err)
		}
	}
}
