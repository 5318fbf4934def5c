package replication

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/difftest"
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
// to a replica, random byte flips injected into annotation pages on disk,
// and the scrubber expected to detect every flip. A page with no surviving
// frame is quarantined, zoom-ins over it shed with a structured CORRUPT
// error, and a restart rebuilds the page file from the node's own
// checkpoint and WAL; a disagreeing index is rebuilt from its rows.
func TestScrubSoak(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	p := startPrimary(t, pdir, -1, SenderConfig{})
	seedSchema(t, p.db)
	mustExec(t, p.db, "CREATE INDEX ON birds (id)")
	// Append-only workload, padded annotations so their text spans many
	// pages.
	pad := strings.Repeat("stonewort ", 40)
	for i := 1; i <= 400; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO birds VALUES (%d, 'Swan %d')", i, i))
		if i%4 == 0 {
			mustExec(t, p.db, fmt.Sprintf("ADD ANNOTATION 'observed feeding on stonewort run %d %s' ON birds WHERE id = %d", i, pad, i))
		}
	}
	r := startReplica(t, rdir, p.addr, ReceiverConfig{})
	waitCaughtUp(t, p, r.rcv)
	difftest.SameState(t, p.db, r.db)

	// ---- Phase 1: rot the replica; every flipped page is quarantined,
	// and a restart brings the replica back record for record. ----
	if err := r.db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	pages := r.db.Annotations().Pages()
	const flips = 5
	if len(pages) < flips {
		t.Fatalf("annotation text spans only %d pages, want %d", len(pages), flips)
	}
	rpf := filepath.Join(rdir, "pages.db")
	flipped := map[storage.PageID]bool{}
	for i := 0; i < flips; i++ {
		pid := pages[i*len(pages)/flips] // spread across the heap
		flipped[pid] = true
		flipPageByte(t, rpf, pid)
	}

	rep := r.db.ScrubNow()
	found := map[storage.PageID]engine.IntegrityFault{}
	for _, f := range rep.Faults {
		if f.Page != storage.InvalidPageID {
			found[f.Page] = f
		}
	}
	for pid := range flipped {
		f, ok := found[pid]
		if !ok {
			t.Fatalf("flip on page %d undetected; faults %+v", pid, rep.Faults)
		}
		if f.Repaired || f.Owner != "annotations" {
			t.Fatalf("page %d: fault %+v, want an unrepaired annotations fault", pid, f)
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
	difftest.SameState(t, p.db, r.db)
	if rep := r.db.ScrubNow(); len(rep.Faults) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("sweep after replica restart: %+v", rep)
	}

	// ---- Phase 2: index disagreement on the replica; the sweep rebuilds
	// the index from the rows. ----
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
	rep = r.db.ScrubNow()
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
	difftest.SameState(t, p.db, r.db)

	// ---- Phase 3: rot the primary — a zoom-in over the rotten text must
	// shed with a structured CORRUPT error, not serve garbage. ----
	psrv, pc := serveOverWire(t, p.db)
	sel, err := pc.Do(context.Background(), "SELECT name FROM birds WHERE id = 4")
	if err != nil || !sel.OK {
		t.Fatalf("SELECT = %+v, %v", sel, err)
	}
	zoom := fmt.Sprintf("ZOOMIN REFERENCE QID %d ON C INDEX 1", sel.QID)

	if err := p.db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	ppf := filepath.Join(pdir, "pages.db")
	badPID := p.db.Annotations().Pages()[0] // holds the annotation of id 4
	flipPageByte(t, ppf, badPID)
	prep := p.db.ScrubNow()
	if len(prep.Quarantined) != 1 || prep.Quarantined[0] != badPID {
		t.Fatalf("standalone primary quarantine = %v, want [%d]", prep.Quarantined, badPID)
	}
	resp, err := pc.Do(context.Background(), zoom)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != server.CodeCorrupt {
		t.Fatalf("zoom-in over quarantined page = %+v, want code %s", resp, server.CodeCorrupt)
	}
	if !strings.Contains(resp.Error, fmt.Sprint(badPID)) {
		t.Fatalf("CORRUPT shed does not name page %d: %q", badPID, resp.Error)
	}

	// ---- Phase 4: SHOW INTEGRITY over the wire still reports the page
	// unrepaired, CHECK TABLE the table sound; a restart of the primary rebuilds its page file and the
	// zoom-in that shed succeeds. ----
	resp, err = pc.Do(context.Background(), "SHOW INTEGRITY")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) == 0 || resp.Rows[0].Values[0].Int() != int64(badPID) || resp.Rows[0].Values[3].Bool() {
		t.Fatalf("SHOW INTEGRITY over a quarantined page = %+v, want page %d unrepaired first", resp, badPID)
	}
	// CHECK TABLE checks the table's indexes, which are sound: the page
	// fault is the scrubber's to report.
	resp, err = pc.Do(context.Background(), "CHECK TABLE birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 0 {
		t.Fatalf("CHECK TABLE birds = %+v, want no fault rows", resp)
	}
	// A restart resets the counters, so check them first.
	if rep := p.db.IntegrityReport(); rep.ChecksumFailures == 0 || rep.Sweeps < 2 {
		t.Fatalf("primary integrity report undercounts: %+v", rep)
	}
	pc.Close()
	psrv.Close()
	restartPrimary(t, p, pdir)
	psrv, pc = serveOverWire(t, p.db)
	sel, err = pc.Do(context.Background(), "SELECT name FROM birds WHERE id = 4")
	if err != nil || !sel.OK || len(sel.Rows) != 1 {
		t.Fatalf("read after primary restart = %+v, %v", sel, err)
	}
	resp, err = pc.Do(context.Background(), fmt.Sprintf("ZOOMIN REFERENCE QID %d ON C INDEX 1", sel.QID))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("zoom-in after primary restart = %+v", resp)
	}

	// ---- Phase 5: both sides sweep clean and agree. ----
	for _, db := range []*engine.DB{p.db, r.db} {
		rep := db.ScrubNow()
		if len(rep.Faults) != 0 || len(rep.Quarantined) != 0 {
			t.Fatalf("final sweep not clean: %+v", rep)
		}
	}
	difftest.SameState(t, p.db, r.db)
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
