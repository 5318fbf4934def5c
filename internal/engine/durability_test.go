package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"insightnotes/internal/metrics"
)

func durableConfig(t *testing.T) Config {
	t.Helper()
	return Config{CacheDir: t.TempDir(), DisableMetrics: true}
}

// openDurable opens dir with auto-checkpointing disabled so tests
// control exactly when the log rotates.
func openDurable(t *testing.T, dir string) (*DB, RecoveryInfo) {
	t.Helper()
	db, info, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	t.Cleanup(func() { db.Close() })
	return db, info
}

func TestOpenDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, info := openDurable(t, dir)
	if info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("fresh dir recovery = %+v", info)
	}
	mustExec(t, db, "CREATE TABLE birds (id INT, name TEXT)")
	mustExec(t, db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	mustExec(t, db, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')")
	mustExec(t, db, "LINK SUMMARY C TO birds")
	mustExec(t, db, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")
	mustExec(t, db, "UPDATE birds SET name = 'Anser cygnoides' WHERE id = 1")
	db.Close()

	// Reopen: no snapshot yet, the whole WAL replays.
	back, info := openDurable(t, dir)
	if info.SnapshotLoaded {
		t.Error("no checkpoint was taken, but recovery loaded a snapshot")
	}
	if info.Replayed != 6 {
		t.Errorf("Replayed = %d, want 6", info.Replayed)
	}
	rows := mustExec(t, back, "SELECT id, name FROM birds ORDER BY id").Rows
	if len(rows) != 2 || rows[0].Tuple[1].String() != "Anser cygnoides" {
		t.Fatalf("recovered rows = %v", rows)
	}
	if back.Annotations().Count() != 1 {
		t.Errorf("recovered annotations = %d, want 1", back.Annotations().Count())
	}
	if env := back.StoredEnvelope("birds", 1); env == nil {
		t.Error("summary envelope not rebuilt during recovery")
	}

	// CHECKPOINT publishes a snapshot and rotates the log.
	res := mustExec(t, back, "CHECKPOINT")
	if !strings.Contains(res.Message, "checkpoint complete") {
		t.Errorf("checkpoint message = %q", res.Message)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("snapshot not published: %v", err)
	}
	if size := back.wal.Size(); size != 0 {
		t.Errorf("wal size after checkpoint = %d, want 0", size)
	}
	mustExec(t, back, "INSERT INTO birds VALUES (3, 'Whooper Swan')")
	back.Close()

	// Reopen: snapshot plus a one-record tail.
	again, info := openDurable(t, dir)
	if !info.SnapshotLoaded || info.Replayed != 1 {
		t.Fatalf("post-checkpoint recovery = %+v", info)
	}
	if got := len(mustExec(t, again, "SELECT id FROM birds").Rows); got != 3 {
		t.Errorf("rows after recovery = %d, want 3", got)
	}
}

// TestRecoveredIDAllocation guards the allocator high-water marks: ids of
// rows and annotations deleted before a checkpoint must not be reissued
// after recovery, or late references would silently alias new data.
func TestRecoveredIDAllocation(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	mustExec(t, db, "ADD ANNOTATION 'a' ON t WHERE id = 3")
	mustExec(t, db, "ADD ANNOTATION 'b' ON t WHERE id = 3")
	// Delete the highest row and (by orphaning) the annotations on it.
	mustExec(t, db, "DELETE FROM t WHERE id = 3")
	mustExec(t, db, "CHECKPOINT")
	db.Close()

	back, _ := openDurable(t, dir)
	mustExec(t, back, "INSERT INTO t VALUES (4)")
	id, _, err := back.Annotate(AnnotationRequest{Text: "fresh", Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Errorf("next annotation id after recovery = %d, want 3 (ids 1,2 deleted but not reusable)", id)
	}
	rows := mustExec(t, back, "SELECT id FROM t ORDER BY id").Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAutoCheckpointBySize(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Every statement overshoots a 1-byte threshold, so the statement
	// after it checkpoints and the log never accumulates two records.
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("auto-checkpoint did not publish a snapshot: %v", err)
	}
	back, info := openDurable(t, dir)
	if !info.SnapshotLoaded {
		t.Error("recovery did not find the auto-checkpoint snapshot")
	}
	if got := len(mustExec(t, back, "SELECT id FROM t").Rows); got != 1 {
		t.Errorf("rows = %d, want 1", got)
	}
}

// TestAutoCheckpointOncePerCrossing has several writers push the WAL over
// the threshold at the same moment. Each sees an oversized log when its
// statement ends, but the log needs — and must get — one checkpoint.
func TestAutoCheckpointOncePerCrossing(t *testing.T) {
	db, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: t.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INT, pad TEXT)")
	for i := 0; i < 64; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", i, strings.Repeat("x", 200)))
	}
	// Any one more record crosses; after the checkpoint empties the log,
	// the writers' few short records cannot cross again.
	db.autoCkptBytes = db.wal.Size() + 1

	const writers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if _, err := db.Exec(context.Background(), fmt.Sprintf("INSERT INTO t VALUES (%d, 'w')", 1000+w)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if got := metricValue(t, db, metrics.NameWALCheckpointsTotal); got != 1 {
		t.Errorf("%s = %v after %d writers crossed the threshold together, want 1", metrics.NameWALCheckpointsTotal, got, writers)
	}
	if got := len(mustExec(t, db, "SELECT id FROM t").Rows); got != 64+writers {
		t.Errorf("rows = %d, want %d", got, 64+writers)
	}
}

// TestOpenDurableTornTail simulates a crash mid-append at the file level:
// garbage after the last full record must be truncated away, reported in
// RecoveryInfo, and never fail the startup.
func TestOpenDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	db.Close()

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x30, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath)

	back, info := openDurable(t, dir)
	if !info.TornTruncated {
		t.Fatalf("recovery = %+v, want TornTruncated", info)
	}
	if info.Replayed != 2 {
		t.Errorf("Replayed = %d, want 2", info.Replayed)
	}
	after, _ := os.Stat(walPath)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	if got := len(mustExec(t, back, "SELECT id FROM t").Rows); got != 1 {
		t.Errorf("rows = %d, want 1", got)
	}
}

func TestCheckpointRequiresDurability(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(context.Background(), "CHECKPOINT"); err == nil || !strings.Contains(err.Error(), "data directory") {
		t.Errorf("CHECKPOINT on an in-memory DB: err = %v", err)
	}
}

// TestWALMetricsExposed asserts the insightnotes_wal_* families surface
// through the engine registry (the source of SHOW METRICS and /metrics).
func TestWALMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "CHECKPOINT")

	got := map[string]float64{}
	for _, s := range db.Metrics().Samples() {
		got[s.Name] = s.Value
	}
	if got[metrics.NameWALAppendsTotal] != 2 {
		t.Errorf("%s = %v, want 2", metrics.NameWALAppendsTotal, got[metrics.NameWALAppendsTotal])
	}
	if got[metrics.NameWALBytesTotal] <= 0 {
		t.Errorf("%s = %v, want > 0", metrics.NameWALBytesTotal, got[metrics.NameWALBytesTotal])
	}
	if got[metrics.NameWALCheckpointsTotal] != 1 {
		t.Errorf("%s = %v, want 1", metrics.NameWALCheckpointsTotal, got[metrics.NameWALCheckpointsTotal])
	}
	if got[metrics.NameWALSizeBytes] != 0 {
		t.Errorf("%s = %v, want 0 after checkpoint", metrics.NameWALSizeBytes, got[metrics.NameWALSizeBytes])
	}
	// The fsync histogram registers as <name>_count/_sum/_bucket samples.
	found := false
	for name := range got {
		if strings.HasPrefix(name, metrics.NameWALFsyncSeconds) {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s samples registered", metrics.NameWALFsyncSeconds)
	}

	res := mustExec(t, db, "SHOW METRICS LIKE 'insightnotes_wal_%'")
	if len(res.Rows) == 0 {
		t.Error("SHOW METRICS LIKE 'insightnotes_wal_%' returned no rows")
	}
}
