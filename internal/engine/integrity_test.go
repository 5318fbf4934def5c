package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// integrityDB opens a file-backed engine with a populated, indexed table
// and returns it with its page-file path.
func integrityDB(t *testing.T, extra ...func(*Config)) (*DB, string) {
	t.Helper()
	pf := filepath.Join(t.TempDir(), "pages.db")
	cfg := Config{CacheDir: t.TempDir(), PageFile: pf, PoolFrames: 64}
	for _, f := range extra {
		f(&cfg)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, "CREATE TABLE kv (k INT, v TEXT)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'value-%d')", i, i))
	}
	return db, pf
}

// flipOnDisk flips one payload byte of page pid in the page file. The
// caller must have flushed the pool so the page is actually on disk.
func flipOnDisk(t *testing.T, path string, pid storage.PageID) {
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

// tableHeapPage returns one heap page id of the named table.
func tableHeapPage(t *testing.T, db *DB, name string) storage.PageID {
	t.Helper()
	tbl, err := db.catStore().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	pages := tbl.HeapPages()
	if len(pages) == 0 {
		t.Fatal("table has no heap pages")
	}
	return pages[0]
}

// TestScrubRepairsFromResidentFrame corrupts the stored copy of a heap
// page while a clean frame survives in the pool: the cheapest repair rung
// (reflush) must heal it without any replica.
func TestScrubRepairsFromResidentFrame(t *testing.T) {
	db, pf := integrityDB(t)
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pid := tableHeapPage(t, db, "kv")
	flipOnDisk(t, pf, pid)

	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 1 {
		t.Fatalf("faults = %+v, want exactly one", rep.Faults)
	}
	f := rep.Faults[0]
	if f.Page != pid || !f.Repaired || f.Source != "flush" {
		t.Fatalf("fault = %+v, want page %d repaired via flush", f, pid)
	}
	if rep.ChecksumFailures == 0 || rep.Repairs == 0 {
		t.Fatalf("report counters = %+v", rep)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("quarantined = %v, want none", rep.Quarantined)
	}
	// The next sweep is clean.
	rep2, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Faults) != 0 {
		t.Fatalf("second sweep faults = %+v", rep2.Faults)
	}
}

// TestScrubStandaloneQuarantinesAndSheds corrupts a table heap page with
// no clean local copy: the sweep must quarantine it (reads shed with the
// structured corruption error, not garbage), and every later sweep must
// report it again as unrepaired without counting a new checksum failure.
func TestScrubStandaloneQuarantinesAndSheds(t *testing.T) {
	db, pf := integrityDB(t)
	if err := db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	pid := tableHeapPage(t, db, "kv")
	flipOnDisk(t, pf, pid)

	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Repaired {
		t.Fatalf("faults = %+v, want one unrepaired", rep.Faults)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != pid {
		t.Fatalf("quarantined = %v, want [%d]", rep.Quarantined, pid)
	}
	// Reads of the poisoned table shed with the structured error.
	_, qerr := db.Query(context.Background(), "SELECT v FROM kv WHERE k = 3")
	if qerr == nil || !errors.Is(qerr, storage.ErrCorrupt) {
		t.Fatalf("query over quarantined page = %v, want ErrCorrupt", qerr)
	}

	rep2, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Faults) != 1 || rep2.Faults[0].Page != pid || rep2.Faults[0].Repaired {
		t.Fatalf("second sweep faults = %+v, want page %d unrepaired", rep2.Faults, pid)
	}
	if rep2.ChecksumFailures != rep.ChecksumFailures {
		t.Fatalf("checksum failures %d -> %d: a quarantined page was recounted",
			rep.ChecksumFailures, rep2.ChecksumFailures)
	}
}

// TestQuarantinedPageRecoversOnRestart corrupts the page holding a row
// updated after the last checkpoint. The page is quarantined, CHECK TABLE
// never reads clean, reads and CHECKPOINT refuse, and a restart rebuilds
// the page file from the checkpoint and WAL with the committed update.
func TestQuarantinedPageRecoversOnRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{CacheDir: t.TempDir(), PoolFrames: 64}
	db, _, err := OpenDurable(cfg, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, "CREATE TABLE kv (k INT, v TEXT)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'value-%d')", i, i))
	}
	mustExec(t, db, "CHECKPOINT")
	mustExec(t, db, "UPDATE kv SET v = 'committed-later' WHERE k = 3")
	if err := db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	pf := filepath.Join(dir, pageFileName)
	raw, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(raw, []byte("committed-later"))
	if off < 0 {
		t.Fatal("updated row not in the page file")
	}
	pid := storage.PageID(off / storage.PageSize)
	flipOnDisk(t, pf, pid)

	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != pid {
		t.Fatalf("quarantined = %v, want [%d]", rep.Quarantined, pid)
	}
	res := mustExec(t, db, "CHECK TABLE kv")
	if len(res.Rows) != 1 {
		t.Fatalf("CHECK TABLE over quarantined page returned %d rows", len(res.Rows))
	}
	if row := res.Rows[0].Tuple; row[0].Int() != int64(pid) || row[3].Bool() {
		t.Fatalf("fault row = %+v, want page %d unrepaired", row, pid)
	}
	if _, err := db.Query(ctx, "SELECT v FROM kv WHERE k = 3"); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("read over quarantined page = %v, want ErrCorrupt", err)
	}
	snapPath := filepath.Join(dir, snapshotFileName)
	published, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "CHECKPOINT"); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("CHECKPOINT with a quarantined page = %v, want ErrCorrupt", err)
	}
	if after, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(after, published) {
		t.Fatalf("refused CHECKPOINT changed the published checkpoint (err %v)", err)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, _, err = OpenDurable(cfg, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(ctx, "SELECT v FROM kv WHERE k = 3")
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Tuple[0].Str() != "committed-later" {
		t.Fatalf("k = 3 after restart = %+v, want committed-later", got.Rows)
	}
	rep, err = db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("sweep after restart: faults %+v, quarantined %v", rep.Faults, rep.Quarantined)
	}
}

// TestScrubRebuildsDisagreeingIndex injects a heap↔index disagreement (a
// silently dropped index entry) and verifies the sweep detects it and
// repairs by rebuilding the index from the heap.
func TestScrubRebuildsDisagreeingIndex(t *testing.T) {
	db, _ := integrityDB(t)
	tbl, err := db.catStore().Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	idx := tbl.Index("k")
	if idx == nil {
		t.Fatal("no index on k")
	}
	if !idx.Delete(storage.EncodeKey(nil, types.NewInt(42)), 0) {
		// RowIDs are 1-based sequential; find the entry by scanning.
		key := storage.EncodeKey(nil, types.NewInt(42))
		vals := idx.Seek(key)
		if len(vals) == 0 {
			t.Fatal("no index entry for k=42")
		}
		idx.Delete(key, vals[0])
	}

	rep, err := db.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	var found *IntegrityFault
	for i := range rep.Faults {
		if rep.Faults[i].Owner == "index:kv" {
			found = &rep.Faults[i]
		}
	}
	if found == nil || !found.Repaired || found.Source != "rebuild" {
		t.Fatalf("faults = %+v, want index:kv rebuilt", rep.Faults)
	}
	// Index-served lookups see the row again.
	res, err := db.Query(context.Background(), "SELECT v FROM kv WHERE k = 42")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("k=42 lookup after rebuild = %d rows", len(res.Rows))
	}
}

// TestCheckTableAndShowIntegritySQL exercises the statement surface:
// CHECK TABLE runs a synchronous scoped sweep and reports its faults as
// rows; SHOW INTEGRITY surfaces the cumulative report.
func TestCheckTableAndShowIntegritySQL(t *testing.T) {
	db, pf := integrityDB(t)
	res := mustExec(t, db, "CHECK TABLE kv")
	if len(res.Rows) != 0 {
		t.Fatalf("clean CHECK TABLE returned %d fault rows", len(res.Rows))
	}
	if res.Message == "" {
		t.Fatal("CHECK TABLE returned no message")
	}

	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pid := tableHeapPage(t, db, "kv")
	flipOnDisk(t, pf, pid)
	res = mustExec(t, db, "CHECK TABLE kv")
	if len(res.Rows) != 1 {
		t.Fatalf("CHECK TABLE over corrupt page returned %d rows", len(res.Rows))
	}
	row := res.Rows[0].Tuple
	if row[0].Int() != int64(pid) || !row[3].Bool() {
		t.Fatalf("fault row = %+v, want page %d repaired", row, pid)
	}

	show := mustExec(t, db, "SHOW INTEGRITY")
	if show.Message == "" {
		t.Fatal("SHOW INTEGRITY returned no message")
	}
	if len(show.Rows) == 0 {
		t.Fatal("SHOW INTEGRITY shows no recorded faults")
	}
	// Unknown table errors cleanly.
	if _, err := db.Exec(context.Background(), "CHECK TABLE nope"); err == nil {
		t.Fatal("CHECK TABLE on unknown table succeeded")
	}
}

// TestBackgroundScrubberHeals verifies the interval worker finds and heals
// rot with no one asking: corrupt a stored page, then wait for the
// scrubber to repair it from the surviving frame.
func TestBackgroundScrubberHeals(t *testing.T) {
	db, pf := integrityDB(t, func(c *Config) {
		c.ScrubInterval = 20 * time.Millisecond
		c.ScrubRate = 10_000
	})
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pid := tableHeapPage(t, db, "kv")
	flipOnDisk(t, pf, pid)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rep := db.IntegrityReport()
		if rep.Repairs > 0 {
			if err := db.pool.VerifyStored(pid); err != nil {
				t.Fatalf("stored copy after background repair: %v", err)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("background scrubber never repaired; report %+v", db.IntegrityReport())
}

// TestIntegrityMetricsExported verifies the insightnotes_integrity_*
// series move with the scrubber.
func TestIntegrityMetricsExported(t *testing.T) {
	db, pf := integrityDB(t)
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	db.pool.DropClean()
	pid := tableHeapPage(t, db, "kv")
	flipOnDisk(t, pf, pid)
	if _, err := db.ScrubNow(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SHOW METRICS")
	got := map[string]string{}
	for _, r := range res.Rows {
		got[r.Tuple[0].Str()] = r.Tuple[1].Str()
	}
	for name, wantZero := range map[string]bool{
		"insightnotes_integrity_pages_scanned":     false,
		"insightnotes_integrity_checksum_failures": false,
		"insightnotes_integrity_quarantined":       false,
		"insightnotes_integrity_repairs":           true, // standalone: nothing repairable
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("metric %s not exported", name)
			continue
		}
		if !wantZero && (v == "0" || v == "") {
			t.Errorf("metric %s = %q, want nonzero", name, v)
		}
	}
}
