package replication

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/server"
	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// flipPageByte flips one payload byte of page pid inside a page file.
func flipPageByte(t *testing.T, path string, pid storage.PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(pid)*storage.PageSize + storage.PageSize - 1
	buf := []byte{0}
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
}

// TestFetchSnapshotEndToEnd requests a one-shot snapshot from a live
// sender and installs it into a fresh replica engine.
func TestFetchSnapshotEndToEnd(t *testing.T) {
	p := startPrimary(t, t.TempDir(), -1, SenderConfig{})
	seedSchema(t, p.db)
	mustExec(t, p.db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	mustExec(t, p.db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")

	raw, err := FetchSnapshot(p.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty snapshot")
	}
	rdb := openDB(t, t.TempDir(), -1)
	defer rdb.Close()
	if _, err := rdb.InstallReplicaSnapshot(raw); err != nil {
		t.Fatalf("install fetched snapshot: %v", err)
	}
	assertConverged(t, p.db, rdb)

	// The regular stream still works after one-shot fetches (the sender
	// must not wedge its listener).
	r := startReplica(t, t.TempDir(), p.addr, ReceiverConfig{})
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)
}

// TestFetchSnapshotRejectsBadCRC serves a snapshot with one flipped byte
// from a fake primary: the fetch is transport only, and the checkpoint's
// per-record CRC makes the replica refuse to install it, its state intact.
func TestFetchSnapshotRejectsBadCRC(t *testing.T) {
	src := openDB(t, t.TempDir(), -1)
	defer src.Close()
	seedSchema(t, src)
	mustExec(t, src, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	var buf bytes.Buffer
	if _, err := src.ReplicationSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[10] ^= 0x01 // inside the first record's payload, past its 8-byte frame header

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		mc := newMsgConn(c)
		if hello, err := mc.read(); err != nil || !hello.WantSnapshot {
			return
		}
		mc.write(&message{Kind: msgSnapshot, Body: raw})
	}()
	fetched, err := FetchSnapshot(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rdb := openDB(t, t.TempDir(), -1)
	defer rdb.Close()
	mustExec(t, rdb, "CREATE TABLE kept (id INT)")
	if _, err := rdb.InstallReplicaSnapshot(fetched); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("tampered snapshot: err = %v, want a checksum mismatch", err)
	}
	if _, err := rdb.Catalog().Table("kept"); err != nil {
		t.Fatalf("the refused snapshot disturbed the replica: %v", err)
	}
}

// TestScrubSoak is the end-to-end bit-rot chaos soak: a primary streaming
// to a replica, random byte flips injected into heap pages on disk, and
// the scrubber expected to detect every flip and drive each page through
// the repair ladder — a checkpoint fetched over the replication link for
// row and annotation content, an index rebuilt from its heap, and a
// structured CORRUPT shed when no source exists.
func TestScrubSoak(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, -1, SenderConfig{})
	seedSchema(t, p.db)
	mustExec(t, p.db, "CREATE INDEX ON birds (id)")
	// Append-only workload, padded rows so the heap spans many pages.
	pad := strings.Repeat("x", 160)
	for i := 1; i <= 400; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO birds VALUES (%d, 'Swan %d %s')", i, i, pad))
		if i%20 == 0 {
			mustExec(t, p.db, fmt.Sprintf("ADD ANNOTATION 'observed feeding on stonewort run %d' ON birds WHERE id = %d", i, i))
		}
	}
	r := startReplica(t, rdir, p.addr, ReceiverConfig{})
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)

	// ---- Phase 1: rot the replica; repairs come from the primary over
	// the replication link. ----
	r.db.SetRepairSource(SnapshotFetcher(p.addr, 5*time.Second))
	if err := r.db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	inv, err := r.db.HeapPageInventory()
	if err != nil {
		t.Fatal(err)
	}
	rpf := filepath.Join(rdir, "pages.db")
	flipped := map[storage.PageID]string{}
	pick := func(owner string, n int) {
		pages := inv[owner]
		if len(pages) < n {
			t.Fatalf("owner %s has only %d pages, want %d (inventory %v)", owner, len(pages), n, inv)
		}
		for i := 0; i < n; i++ {
			pid := pages[i*len(pages)/n] // spread across the heap
			if _, dup := flipped[pid]; dup {
				pid = pages[i]
			}
			flipped[pid] = owner
			flipPageByte(t, rpf, pid)
		}
	}
	pick("table:birds", 4)
	pick("annotations", 1)

	rep, err := r.db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	found := map[storage.PageID]engine.IntegrityFault{}
	for _, f := range rep.Faults {
		if f.Page != storage.InvalidPageID {
			found[f.Page] = f
		}
	}
	for pid, owner := range flipped {
		f, ok := found[pid]
		if !ok {
			t.Fatalf("flip on page %d (%s) undetected; faults %+v", pid, owner, rep.Faults)
		}
		if !f.Repaired {
			t.Fatalf("page %d (%s) not repaired: %+v", pid, owner, f)
		}
		if f.Source != "replica" {
			t.Fatalf("page %d (%s) repaired from %q, want %q", pid, owner, f.Source, "replica")
		}
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("pages left quarantined after repair: %v", rep.Quarantined)
	}

	// ---- Phase 2: index disagreement on the replica; the sweep rebuilds
	// the index from the heap. ----
	tbl, err := r.db.Catalog().Table("birds")
	if err != nil {
		t.Fatal(err)
	}
	idx := tbl.Index("id")
	if idx == nil {
		t.Fatal("replica lost the birds.id index")
	}
	key := storage.EncodeKey(nil, types.NewInt(123))
	vals := idx.Seek(key)
	if len(vals) == 0 {
		t.Fatal("no index entry for id=123")
	}
	idx.Delete(key, vals[0])
	rep, err = r.db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	fixed := false
	for _, f := range rep.Faults {
		if f.Owner == "index:birds" && f.Repaired && f.Source == "rebuild" {
			fixed = true
		}
	}
	if !fixed {
		t.Fatalf("index disagreement not repaired; faults %+v", rep.Faults)
	}

	// Replica converged again, record for record.
	assertConverged(t, p.db, r.db)

	// ---- Phase 3: rot the primary, which has no repair source — reads
	// must shed with a structured CORRUPT error, not serve garbage. ----
	psrv := server.New(p.db)
	paddr, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	pc, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	if err := p.db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	pinv, err := p.db.HeapPageInventory()
	if err != nil {
		t.Fatal(err)
	}
	ppf := filepath.Join(pdir, "pages.db")
	badPID := pinv["table:birds"][0]
	flipPageByte(t, ppf, badPID)
	prep, err := p.db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Quarantined) != 1 || prep.Quarantined[0] != badPID {
		t.Fatalf("standalone primary quarantine = %v, want [%d]", prep.Quarantined, badPID)
	}
	resp, err := pc.Do(context.Background(), "SELECT name FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != server.CodeCorrupt {
		t.Fatalf("read over quarantined page = %+v, want code %s", resp, server.CodeCorrupt)
	}
	if !strings.Contains(resp.Error, fmt.Sprint(badPID)) {
		t.Fatalf("CORRUPT shed does not name page %d: %q", badPID, resp.Error)
	}

	// ---- Phase 4: give the primary a repair source (the converged
	// replica) and heal it with CHECK TABLE over the wire. ----
	p.db.SetRepairSource(func() ([]byte, error) {
		var buf bytes.Buffer
		if _, err := r.db.ReplicationSnapshot(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	resp, err = pc.Do(context.Background(), "CHECK TABLE birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("CHECK TABLE birds: %+v", resp)
	}
	resp, err = pc.Do(context.Background(), "SELECT name FROM birds WHERE id = 123")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("read after CHECK TABLE repair = %+v", resp)
	}

	// ---- Phase 5: both sides sweep clean and agree. ----
	for _, db := range []*engine.DB{p.db, r.db} {
		rep, err := db.ScrubNow()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Faults) != 0 || len(rep.Quarantined) != 0 {
			t.Fatalf("final sweep not clean: %+v", rep)
		}
	}
	assertConverged(t, p.db, r.db)
	if rep := p.db.IntegrityReport(); rep.ChecksumFailures == 0 || rep.Repairs == 0 || rep.Sweeps < 2 {
		t.Fatalf("primary integrity report undercounts: %+v", rep)
	}
}
