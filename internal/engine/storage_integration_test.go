package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"insightnotes/internal/metrics"
	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// TestPageFileBackedEngine runs a full workload against an engine whose
// page store is file-backed, with a buffer pool small enough that the
// annotation text actually pages in and out of the file. Table rows are
// not paged: scans and lookups never touch the pool.
func TestPageFileBackedEngine(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "pages.db")
	db, err := Open(Config{CacheDir: t.TempDir(), PageFile: pf, PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE kv (k INT, v TEXT)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	const rows = 2000
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'value-%d')", i, i))
	}
	pad := strings.Repeat("alpha ", 50)
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'alpha note %d %s' ON kv WHERE k = %d", i, pad, i))
	}
	mustExec(t, db, "ADD ANNOTATION 'alpha paged out and back in' ON kv WHERE k = 7")
	hits0, misses0 := db.pool.Stats()

	res, err := db.Query(context.Background(), "SELECT v FROM kv WHERE k = 1234")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", len(res.Rows))
	}
	res, err = db.Query(context.Background(), "SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("full scan returned %d rows, want %d", len(res.Rows), rows)
	}
	if hits, misses := db.pool.Stats(); hits != hits0 || misses != misses0 {
		t.Errorf("SELECTs touched the pool: %d hits, %d misses", hits-hits0, misses-misses0)
	}
	// Linking an instance summarizes every stored annotation, reading the
	// text back through the pool; a zoom-in reads one annotation again.
	mustExec(t, db, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('x', 'y')")
	mustExec(t, db, "TRAIN SUMMARY C ('alpha text', 'x'), ('beta text', 'y')")
	mustExec(t, db, "LINK SUMMARY C TO kv")
	res = mustExec(t, db, "SELECT v FROM kv WHERE k = 7")
	zoom, _, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "C", Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(zoom) != 1 || len(zoom[0].Annotations) != 2 || zoom[0].Annotations[1].Text != "alpha paged out and back in" {
		t.Fatalf("zoom-in on k = 7 = %+v", zoom)
	}

	// The workload is far bigger than 4 frames: the pool must have missed
	// and evicted, and the page file must hold whole pages.
	if _, misses := db.pool.Stats(); misses == 0 {
		t.Error("buffer pool reports zero misses over a 4-frame pool")
	}
	if db.pool.Evictions() == 0 {
		t.Error("buffer pool reports zero evictions over a 4-frame pool")
	}
	fi, err := os.Stat(pf)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 || fi.Size()%storage.PageSize != 0 {
		t.Errorf("page file size = %d, want a positive multiple of %d", fi.Size(), storage.PageSize)
	}

	// The bufferpool counters surface through the metrics registry (the
	// source of SHOW METRICS and /metrics).
	got := map[string]float64{}
	for _, s := range db.Metrics().Samples() {
		got[s.Name] = s.Value
	}
	for _, name := range []string{
		metrics.NameBufferpoolHits,
		metrics.NameBufferpoolMisses,
		metrics.NameBufferpoolEvictions,
	} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
	if res := mustExec(t, db, "SHOW METRICS LIKE 'insightnotes_bufferpool_%'"); len(res.Rows) < 3 {
		t.Errorf("SHOW METRICS LIKE 'insightnotes_bufferpool_%%' returned %d rows, want >= 3", len(res.Rows))
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The page file is an ephemeral paging layer: reopening with the same
	// path must start clean rather than trip over stale pages.
	db2, err := Open(Config{CacheDir: t.TempDir(), PageFile: pf, PoolFrames: 4})
	if err != nil {
		t.Fatalf("reopen with existing page file: %v", err)
	}
	mustExec(t, db2, "CREATE TABLE kv (k INT, v TEXT)")
	mustExec(t, db2, "INSERT INTO kv VALUES (1, 'fresh')")
	if err := db2.Close(); err != nil {
		t.Fatalf("Close after reopen: %v", err)
	}
}

// TestDurablePageFileDefault asserts OpenDurable places the page file
// inside the data directory by default, and that the annotation text is
// what it holds.
func TestDurablePageFileDefault(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "ADD ANNOTATION 'kept in the page file' ON t")
	if err := db.FlushPages(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, pageFileName))
	if err != nil {
		t.Fatalf("durable engine did not create %s in the data dir: %v", pageFileName, err)
	}
	if len(raw) != storage.PageSize || !bytes.Contains(raw, []byte("kept in the page file")) {
		t.Errorf("%s holds %d bytes; want one page of annotation text", pageFileName, len(raw))
	}
}

// rowsHolding walks the row slots of table and returns, in row-id order,
// the rows whose envelope holds an object of the named instance.
func rowsHolding(db *DB, table, instance string) []types.RowID {
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return nil
	}
	var rows []types.RowID
	for _, r := range tbl.Rows() {
		if r.Env != nil && r.Env.Object(instance) != nil {
			rows = append(rows, r.ID)
		}
	}
	return rows
}

// envelopeCount is the value of the stored-envelopes gauge.
func envelopeCount(db *DB) int {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	n, _ := db.envelopeStats()
	return n
}

// TestInstanceIndexThroughUnlinkAndRetract drives the stored envelopes'
// summary objects through annotate, unlink, drop-instance and retract.
func TestInstanceIndexThroughUnlinkAndRetract(t *testing.T) {
	db := birdDB(t)
	// Documents attached so the snippet instance forms objects too (snippet
	// summaries only cover annotations that carry a document).
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' DOCUMENT 'The flock fed at dawn. It moved on at noon.' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'lesions suggest avian pox' DOCUMENT 'Lesions were found on the bill. Pox is suspected.' ON birds WHERE id = 2")
	// A second table linked to SimCluster, so unlinking from birds must
	// leave the instance's objects on nests alone.
	mustExec(t, db, "CREATE TABLE nests (id INT, site TEXT)")
	mustExec(t, db, "INSERT INTO nests VALUES (1, 'reed bed'), (2, 'island')")
	mustExec(t, db, "LINK SUMMARY SimCluster TO nests")
	mustExec(t, db, "ADD ANNOTATION 'nest abandoned after flooding' ON nests WHERE id = 2")

	want := db.Annotations().AnnotatedRows("birds")
	if len(want) != 2 {
		t.Fatalf("AnnotatedRows = %v, want 2 rows", want)
	}
	for _, inst := range []string{"ClassBird1", "SimCluster", "TextSummary1"} {
		if got := rowsHolding(db, "birds", inst); !reflect.DeepEqual(got, want) {
			t.Errorf("birds rows holding %s = %v, want %v", inst, got, want)
		}
	}
	if got, want := rowsHolding(db, "nests", "SimCluster"), []types.RowID{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nests rows holding SimCluster = %v, want %v", got, want)
	}
	// Unlinking one instance removes exactly its objects; the envelopes
	// survive with their other objects.
	mustExec(t, db, "UNLINK SUMMARY ClassBird1 FROM birds")
	if got := rowsHolding(db, "birds", "ClassBird1"); len(got) != 0 {
		t.Errorf("birds rows holding ClassBird1 after unlink = %v, want none", got)
	}
	if got := rowsHolding(db, "birds", "SimCluster"); !reflect.DeepEqual(got, want) {
		t.Errorf("birds rows holding SimCluster after unrelated unlink = %v, want %v", got, want)
	}
	if c := envelopeCount(db); c != 3 {
		t.Errorf("after unlink: store holds %d envelopes, want 3", c)
	}
	// Unlinking SimCluster from birds leaves the nests envelope holding it.
	mustExec(t, db, "UNLINK SUMMARY SimCluster FROM birds")
	if got := rowsHolding(db, "birds", "SimCluster"); len(got) != 0 {
		t.Errorf("birds rows holding SimCluster after unlink = %v, want none", got)
	}
	if got, want := rowsHolding(db, "nests", "SimCluster"), []types.RowID{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("nests rows holding SimCluster after unlink from birds = %v, want %v", got, want)
	}
	// Dropping the instance unlinks it from nests too; the nests envelope
	// held nothing else, so it goes.
	mustExec(t, db, "DROP SUMMARY INSTANCE SimCluster")
	if got := rowsHolding(db, "nests", "SimCluster"); len(got) != 0 {
		t.Errorf("nests rows holding SimCluster after drop = %v, want none", got)
	}
	if c := envelopeCount(db); c != 2 {
		t.Errorf("after drop: store holds %d envelopes, want 2", c)
	}

	// Retracting the annotations empties the envelopes, which drops them.
	mustExec(t, db, "DROP ANNOTATION 1")
	mustExec(t, db, "DROP ANNOTATION 2")
	if c := envelopeCount(db); c != 0 {
		t.Errorf("envelopes after retracting all birds annotations = %d, want 0", c)
	}
}

// TestPageStoreHoldsOnlyAnnotationText: rows, summaries and targets live
// in memory, so every page the store allocated belongs to the annotation
// heap, the page set the scrubber sweeps.
func TestPageStoreHoldsOnlyAnnotationText(t *testing.T) {
	db := birdDB(t)
	for i := 0; i < 40; i++ {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'observed feeding at dawn, flock %d' DOCUMENT 'The flock fed at dawn.' ON birds WHERE id = %d", i, i%3+1))
	}
	mustExec(t, db, "ADD ANNOTATION 'one note on every row' ON birds")
	if envelopeCount(db) != 3 {
		t.Fatalf("setup: %d envelopes, want 3", envelopeCount(db))
	}
	pages := db.Annotations().Pages()
	if len(pages) == 0 {
		t.Fatal("annotation heap holds no pages")
	}
	if n := int(db.store.NumPages()); n != len(pages) {
		t.Errorf("page store holds %d pages, annotation heap %d: pages outside the swept heap", n, len(pages))
	}
}
