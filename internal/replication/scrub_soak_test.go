package replication

import (
	"context"
	"fmt"
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

// restartReplica stops r's receiver, closes its engine and reopens it from
// its own checkpoint and WAL, which recreates the page file, then follows
// primaryAddr again.
func restartReplica(t *testing.T, r *replicaStack, dir, primaryAddr string) {
	t.Helper()
	if err := r.rcv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	r.db = openDB(t, dir, -1)
	rcv, err := NewReceiver(r.db, ReceiverConfig{PrimaryAddr: primaryAddr, Backoff: fastBackoff})
	if err != nil {
		t.Fatal(err)
	}
	rcv.Start()
	r.rcv = rcv
}

// restartPrimary shuts p's sender down, closes its engine and reopens it
// from its own checkpoint and WAL, listening again on the same address so
// its replica reconnects.
func restartPrimary(t *testing.T, p *primaryStack, dir string) {
	t.Helper()
	if err := p.sender.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Close(); err != nil {
		t.Fatal(err)
	}
	p.db = openDB(t, dir, -1)
	s, err := NewSender(p.db, SenderConfig{Heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen(p.addr); err != nil {
		t.Fatal(err)
	}
	p.sender = s
}

// TestScrubSoak is the end-to-end bit-rot chaos soak: a primary streaming
// to a replica, random byte flips injected into heap pages on disk, and
// the scrubber expected to detect every flip. A page with no surviving
// frame is quarantined, reads over it shed with a structured CORRUPT
// error, and a restart rebuilds the page file from the node's own
// checkpoint and WAL; a disagreeing index is rebuilt from its heap.
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

	// ---- Phase 1: rot the replica; every flipped page is quarantined,
	// and a restart brings the replica back record for record. ----
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
		if f.Repaired {
			t.Fatalf("page %d (%s) repaired from %q with no surviving frame", pid, owner, f.Source)
		}
	}
	if len(rep.Quarantined) != len(flipped) {
		t.Fatalf("quarantined = %v, want the %d flipped pages", rep.Quarantined, len(flipped))
	}
	for _, pid := range rep.Quarantined {
		if _, ok := flipped[pid]; !ok {
			t.Fatalf("page %d quarantined but never flipped", pid)
		}
	}
	restartReplica(t, r, rdir, p.addr)
	waitCaughtUp(t, p, r.rcv)
	assertConverged(t, p.db, r.db)
	if rep, err := r.db.ScrubNow(); err != nil || len(rep.Faults) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("sweep after replica restart: %+v, %v", rep, err)
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

	// ---- Phase 3: rot the primary — reads must shed with a structured
	// CORRUPT error, not serve garbage. ----
	psrv, pc := serveOverWire(t, p.db)

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

	// ---- Phase 4: CHECK TABLE over the wire still reports the page
	// unrepaired; a restart of the primary rebuilds its page file and the
	// read that shed succeeds. ----
	resp, err = pc.Do(context.Background(), "CHECK TABLE birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("CHECK TABLE birds over a quarantined page = %+v, want one fault row", resp)
	}
	// A restart resets the counters, so check them first.
	if rep := p.db.IntegrityReport(); rep.ChecksumFailures == 0 || rep.Sweeps < 2 {
		t.Fatalf("primary integrity report undercounts: %+v", rep)
	}
	pc.Close()
	psrv.Close()
	restartPrimary(t, p, pdir)
	psrv, pc = serveOverWire(t, p.db)
	resp, err = pc.Do(context.Background(), "SELECT name FROM birds WHERE id = 123")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("read after primary restart = %+v", resp)
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
}

// serveOverWire starts a statement server on db and dials it. Both are
// closed at cleanup if the test has not closed them already.
func serveOverWire(t *testing.T, db *engine.DB) (*server.Server, *server.Client) {
	t.Helper()
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}
