package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// integrityDB opens a file-backed engine with a populated, indexed table
// whose rows carry enough annotation text to span several pages, under a
// linked classifier so zoom-ins read it back, and returns it with its
// page-file path.
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
	seedIntegrity(t, db)
	return db, pf
}

// seedIntegrity creates kv(k, v) with 200 rows, an index on k, a
// classifier C linked to kv, and one annotation of label 1 on each of the
// first 60 rows.
func seedIntegrity(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE kv (k INT, v TEXT)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'value-%d')", i, i))
	}
	mustExec(t, db, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('x', 'y')")
	mustExec(t, db, "TRAIN SUMMARY C ('alpha text', 'x'), ('beta text', 'y')")
	mustExec(t, db, "LINK SUMMARY C TO kv")
	pad := strings.Repeat("alpha ", 60)
	for i := 0; i < 60; i++ {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'alpha note %d %s' ON kv WHERE k = %d", i, pad, i))
	}
}

// zoomRow runs a SELECT of row k of kv and zooms into label 1 of C on it.
func zoomRow(t *testing.T, db *DB, k int) ([]ZoomRowResult, error) {
	t.Helper()
	res, err := db.Query(context.Background(), fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "C", Index: 1})
	return out, err
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

// annotationPage returns the first annotation page, which holds the
// annotations of the first rows of kv.
func annotationPage(t *testing.T, db *DB) storage.PageID {
	t.Helper()
	pages := db.Annotations().Pages()
	if len(pages) < 2 {
		t.Fatalf("annotation text spans %d page(s), want several", len(pages))
	}
	return pages[0]
}

// TestScrubRepairsFromResidentFrame corrupts the stored copy of an
// annotation page while a clean frame survives in the pool: the cheapest repair rung
// (reflush) must heal it without any replica.
func TestScrubRepairsFromResidentFrame(t *testing.T) {
	db, pf := integrityDB(t)
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pid := annotationPage(t, db)
	flipOnDisk(t, pf, pid)

	rep := db.ScrubNow()
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
	rep2 := db.ScrubNow()
	if len(rep2.Faults) != 0 {
		t.Fatalf("second sweep faults = %+v", rep2.Faults)
	}
}

// TestScrubStandaloneQuarantinesAndSheds corrupts an annotation page with
// no clean local copy: the sweep must quarantine it (a zoom-in over it
// sheds with the structured corruption error, not garbage), and every
// later sweep must report it again as unrepaired without counting a new
// checksum failure.
func TestScrubStandaloneQuarantinesAndSheds(t *testing.T) {
	db, pf := integrityDB(t)
	if err := db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	pid := annotationPage(t, db)
	flipOnDisk(t, pf, pid)

	rep := db.ScrubNow()
	if len(rep.Faults) != 1 || rep.Faults[0].Repaired {
		t.Fatalf("faults = %+v, want one unrepaired", rep.Faults)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != pid {
		t.Fatalf("quarantined = %v, want [%d]", rep.Quarantined, pid)
	}
	// A zoom-in over the poisoned text sheds with the structured error.
	if _, zerr := zoomRow(t, db, 3); !errors.Is(zerr, storage.ErrCorrupt) {
		t.Fatalf("zoom-in over quarantined page = %v, want ErrCorrupt", zerr)
	}

	rep2 := db.ScrubNow()
	if len(rep2.Faults) != 1 || rep2.Faults[0].Page != pid || rep2.Faults[0].Repaired {
		t.Fatalf("second sweep faults = %+v, want page %d unrepaired", rep2.Faults, pid)
	}
	if rep2.ChecksumFailures != rep.ChecksumFailures {
		t.Fatalf("checksum failures %d -> %d: a quarantined page was recounted",
			rep.ChecksumFailures, rep2.ChecksumFailures)
	}
}

// TestQuarantinedPageRecoversOnRestart corrupts the page holding an
// annotation added after the last checkpoint. The page is quarantined,
// SHOW INTEGRITY never reads clean, zoom-ins and CHECKPOINT refuse, and a
// restart rebuilds the page file from the checkpoint and WAL with the
// committed annotation.
func TestQuarantinedPageRecoversOnRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{CacheDir: t.TempDir(), PoolFrames: 64}
	db, _, err := OpenDurable(cfg, DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedIntegrity(t, db)
	mustExec(t, db, "CHECKPOINT")
	mustExec(t, db, "ADD ANNOTATION 'alpha committed-later' ON kv WHERE k = 150")
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
		t.Fatal("new annotation not in the page file")
	}
	pid := storage.PageID(off / storage.PageSize)
	flipOnDisk(t, pf, pid)

	rep := db.ScrubNow()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != pid {
		t.Fatalf("quarantined = %v, want [%d]", rep.Quarantined, pid)
	}
	res := mustExec(t, db, "SHOW INTEGRITY")
	if len(res.Rows) != 1 {
		t.Fatalf("SHOW INTEGRITY over a quarantined page returned %d rows", len(res.Rows))
	}
	if row := res.Rows[0].Tuple; row[0].Int() != int64(pid) || row[1].Str() != "annotations" || row[3].Bool() {
		t.Fatalf("fault row = %+v, want annotation page %d unrepaired", row, pid)
	}
	if !strings.Contains(res.Message, fmt.Sprintf("1 quarantined [%d]", pid)) {
		t.Fatalf("SHOW INTEGRITY message = %q, want page %d quarantined", res.Message, pid)
	}
	if _, err := zoomRow(t, db, 150); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("zoom-in over quarantined page = %v, want ErrCorrupt", err)
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
	got, err := zoomRow(t, db, 150)
	if err != nil {
		t.Fatalf("zoom-in after restart: %v", err)
	}
	if len(got) != 1 || len(got[0].Annotations) != 1 || got[0].Annotations[0].Text != "alpha committed-later" {
		t.Fatalf("k = 150 zoom-in after restart = %+v, want the committed annotation", got)
	}
	rep = db.ScrubNow()
	if len(rep.Faults) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("sweep after restart: faults %+v, quarantined %v", rep.Faults, rep.Quarantined)
	}
}

// TestScrubRebuildsDisagreeingIndex injects a row↔index disagreement (a
// silently dropped index entry) and verifies the sweep detects it and
// repairs by rebuilding the index from the rows.
func TestScrubRebuildsDisagreeingIndex(t *testing.T) {
	db, _ := integrityDB(t)
	tbl, err := db.cat.Table("kv")
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

	rep := db.ScrubNow()
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
// CHECK TABLE checks one table's indexes against its rows synchronously
// and reports its faults as rows; page faults are the scrubber's, and
// SHOW INTEGRITY surfaces the cumulative report of both.
func TestCheckTableAndShowIntegritySQL(t *testing.T) {
	db, pf := integrityDB(t)
	res := mustExec(t, db, "CHECK TABLE kv")
	if len(res.Rows) != 0 {
		t.Fatalf("clean CHECK TABLE returned %d fault rows", len(res.Rows))
	}
	if res.Message == "" {
		t.Fatal("CHECK TABLE returned no message")
	}

	// An index that lost an entry is attributed to the table and rebuilt.
	tbl, err := db.cat.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	key := storage.EncodeKey(nil, types.NewInt(42))
	vals := tbl.Index("k").Seek(key)
	if len(vals) == 0 {
		t.Fatal("no index entry for k=42")
	}
	tbl.Index("k").Delete(key, vals[0])
	res = mustExec(t, db, "CHECK TABLE kv")
	if len(res.Rows) != 1 {
		t.Fatalf("CHECK TABLE over a disagreeing index returned %d rows", len(res.Rows))
	}
	if row := res.Rows[0].Tuple; row[1].Str() != "index:kv" || !row[3].Bool() || row[4].Str() != "rebuild" {
		t.Fatalf("fault row = %+v, want index:kv rebuilt", row)
	}
	if res := mustExec(t, db, "CHECK TABLE kv"); len(res.Rows) != 0 {
		t.Fatalf("CHECK TABLE after the rebuild returned %d fault rows", len(res.Rows))
	}

	// A corrupt annotation page is the sweep's to find, not CHECK TABLE's.
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pid := annotationPage(t, db)
	flipOnDisk(t, pf, pid)
	if res := mustExec(t, db, "CHECK TABLE kv"); len(res.Rows) != 0 {
		t.Fatalf("CHECK TABLE reported %d page fault(s)", len(res.Rows))
	}
	db.ScrubNow()
	show := mustExec(t, db, "SHOW INTEGRITY")
	if show.Message == "" {
		t.Fatal("SHOW INTEGRITY returned no message")
	}
	owners := map[string]bool{}
	for _, r := range show.Rows {
		owners[r.Tuple[1].Str()] = true
		if r.Tuple[1].Str() == "annotations" && (r.Tuple[0].Int() != int64(pid) || !r.Tuple[3].Bool()) {
			t.Fatalf("page fault row = %+v, want page %d repaired", r.Tuple, pid)
		}
	}
	if !owners["annotations"] || !owners["index:kv"] {
		t.Fatalf("SHOW INTEGRITY owners = %v, want the page and the index fault", owners)
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
	pid := annotationPage(t, db)
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
	pid := annotationPage(t, db)
	flipOnDisk(t, pf, pid)
	db.ScrubNow()
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
