package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"insightnotes/internal/difftest"
	"insightnotes/internal/exec"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/metrics"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// parkMaintenance blocks the catch-up worker inside the MaintenanceApply
// failpoint, so assertions about the stale window are deterministic (the
// work-conserving worker would otherwise race them). The returned release
// is idempotent and also registered as cleanup.
func parkMaintenance(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	failpoint.Enable(failpoint.MaintenanceApply, func() error { <-gate; return nil })
	var once sync.Once
	release = func() {
		failpoint.Disable(failpoint.MaintenanceApply)
		once.Do(func() { close(gate) })
	}
	t.Cleanup(release)
	return release
}

// maintScaffold builds the shared fixture: an annotated table linked to a
// classifier and a snippet instance.
func maintScaffold(t *testing.T, db *DB) {
	t.Helper()
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan'), (3, 'Tundra Swan')",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"CREATE SUMMARY INSTANCE S TYPE Snippet",
		"LINK SUMMARY C TO birds",
		"LINK SUMMARY S TO birds",
	} {
		mustExec(t, db, stmt)
	}
}

// sampleValue returns the value of the metric sample whose exposition name
// starts with prefix (exact name, or name plus a label), and whether it
// was found.
func sampleValue(reg *metrics.Registry, prefix string) (float64, bool) {
	for _, s := range reg.Samples() {
		if s.Name == prefix || strings.HasPrefix(s.Name, prefix+"{") {
			return s.Value, true
		}
	}
	return 0, false
}

// TestDeferredMaintenanceConverges drives the same annotation stream into
// a degraded engine and a synchronous shadow: while degraded the summaries
// lag (stale gauges above zero), and after catch-up the maintained
// envelopes are identical to what synchronous maintenance produced —
// summarize-once semantics included.
func TestDeferredMaintenanceConverges(t *testing.T) {
	db := MustOpen(Config{CacheDir: t.TempDir()})
	defer db.Close()
	shadow := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	defer shadow.Close()
	maintScaffold(t, db)
	maintScaffold(t, shadow)

	release := parkMaintenance(t)
	db.SetDegraded(true)
	if st := db.MaintenanceStats(); !st.Degraded {
		t.Fatal("SetDegraded(true) did not mark the engine degraded")
	}
	const anns = 8
	for i := 0; i < anns; i++ {
		stmt := fmt.Sprintf("ADD ANNOTATION 'observed behavior %d feeding' ON birds WHERE id = %d", i, i%3+1)
		mustExec(t, db, stmt)
		mustExec(t, shadow, stmt)
	}

	// Raw annotations are never deferred — only their summaries are.
	if g := db.Annotations().Count(); g != anns {
		t.Fatalf("raw annotations = %d, want %d (ingestion must stay synchronous)", g, anns)
	}
	st := db.MaintenanceStats()
	if st.Deferred != anns {
		t.Fatalf("deferred = %d, want %d", st.Deferred, anns)
	}
	if st.StaleByInstance["C"] == 0 || st.StaleByInstance["S"] == 0 {
		t.Fatalf("stale counts missing: %+v", st.StaleByInstance)
	}

	release()
	db.SetDegraded(false)
	db.WaitMaintenanceIdle()
	st = db.MaintenanceStats()
	if st.Pending != 0 || st.Applied != anns || st.Degraded {
		t.Fatalf("after catch-up: %+v", st)
	}
	for name, n := range st.StaleByInstance {
		if n != 0 {
			t.Fatalf("instance %s still stale: %d", name, n)
		}
	}
	difftest.SameState(t, db, shadow)

	// Fresh again: the next annotation applies synchronously.
	mustExec(t, db, "ADD ANNOTATION 'post recovery note' ON birds WHERE id = 1")
	mustExec(t, shadow, "ADD ANNOTATION 'post recovery note' ON birds WHERE id = 1")
	if st := db.MaintenanceStats(); st.Deferred != anns {
		t.Fatalf("fresh engine deferred again: %+v", st)
	}
	difftest.SameState(t, db, shadow)
}

// TestMaintenanceMetricsAndStats covers the staleness surfaces: the
// pending/degraded gauges and per-instance stale gauge in the registry,
// and the stale_pending count on SELECT statement stats.
func TestMaintenanceMetricsAndStats(t *testing.T) {
	db := MustOpen(Config{CacheDir: t.TempDir()})
	defer db.Close()
	maintScaffold(t, db)
	reg := db.Metrics()

	if v, ok := sampleValue(reg, metrics.NameMaintenanceDegraded); !ok || v != 0 {
		t.Fatalf("degraded gauge = %v, %v; want 0, true", v, ok)
	}
	release := parkMaintenance(t)
	db.SetDegraded(true)
	mustExec(t, db, "ADD ANNOTATION 'stale note one' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'stale note two' ON birds WHERE id = 2")

	if v, _ := sampleValue(reg, metrics.NameMaintenanceDegraded); v != 1 {
		t.Fatalf("degraded gauge = %v, want 1", v)
	}
	if v, _ := sampleValue(reg, metrics.NameMaintenanceDeferredTotal); v != 2 {
		t.Fatalf("deferred counter = %v, want 2", v)
	}
	if v, ok := sampleValue(reg, metrics.NameSummaryStaleUpdatesTotal); !ok || v == 0 {
		t.Fatalf("stale gauge = %v, %v; want > 0", v, ok)
	}

	// SELECT while degraded reports the staleness debt on its stats.
	res, err := db.Query(context.Background(), "SELECT * FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StalePending == 0 {
		t.Fatal("SELECT under degraded mode reported no pending maintenance")
	}
	if !strings.Contains(res.Stats.String(), "stale") {
		t.Fatalf("stats line hides staleness: %q", res.Stats.String())
	}

	release()
	db.SetDegraded(false)
	db.WaitMaintenanceIdle()
	if v, _ := sampleValue(reg, metrics.NameMaintenancePendingTasks); v != 0 {
		t.Fatalf("pending gauge = %v after drain, want 0", v)
	}
	if v, _ := sampleValue(reg, metrics.NameMaintenanceAppliedTotal); v != 2 {
		t.Fatalf("applied counter = %v, want 2", v)
	}
	if v, _ := sampleValue(reg, metrics.NameSummaryStaleUpdatesTotal); v != 0 {
		t.Fatalf("stale gauge = %v after drain, want 0", v)
	}
	res, err = db.Query(context.Background(), "SELECT * FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StalePending != 0 {
		t.Fatalf("fresh engine reports stale_pending = %d", res.Stats.StalePending)
	}
}

// TestMaintenanceDrainBarriers verifies that statements which read or
// rewrite the summary store wait out queued maintenance instead of racing
// it: a retraction right behind a deferred ingest must see the ingest
// applied, matching the synchronous shadow exactly.
func TestMaintenanceDrainBarriers(t *testing.T) {
	db := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	defer db.Close()
	shadow := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	defer shadow.Close()
	maintScaffold(t, db)
	maintScaffold(t, shadow)

	db.SetDegraded(true)
	stmts := []string{
		"ADD ANNOTATION 'first observed feeding' ON birds WHERE id = 1",
		"ADD ANNOTATION 'second observed roosting' ON birds WHERE id = 1",
		"DROP ANNOTATION 1", // barrier: must not resurrect annotation 1
		"ADD ANNOTATION 'third observed preening' ON birds WHERE id = 2",
		"TRAIN SUMMARY C ('feeding foraging sample', 'Behavior')", // barrier
		"ADD ANNOTATION 'fourth observed feeding' ON birds WHERE id = 3",
		"DELETE FROM birds WHERE id = 2", // barrier: envelope must stay dropped
	}
	for _, stmt := range stmts {
		mustExec(t, db, stmt)
		mustExec(t, shadow, stmt)
	}
	db.SetDegraded(false)
	db.WaitMaintenanceIdle()
	difftest.SameState(t, db, shadow)

	if env := db.EnvelopeFor("birds", db.Annotations().AnnotatedRows("birds")[0]); env != nil {
		if strings.Contains(env.Render(), "first observed") {
			t.Fatalf("retracted annotation resurrected by catch-up: %s", env.Render())
		}
	}
}

// TestCatchUpPublishesBesideOpenScans: the catch-up worker never writes a
// stored envelope in place, it replaces it in the row's slot. A scan
// opened before the worker catches up — under the shared statement lock,
// as a SELECT runs — yields each row's envelope whole, as stored when the
// scan opened, and a fresh query then shows the caught-up envelopes,
// identical to synchronous maintenance. Run with -race.
func TestCatchUpPublishesBesideOpenScans(t *testing.T) {
	db := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	defer db.Close()
	shadow := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	defer shadow.Close()
	maintScaffold(t, db)
	maintScaffold(t, shadow)
	both := func(stmt string) {
		mustExec(t, db, stmt)
		mustExec(t, shadow, stmt)
	}
	for id := 1; id <= 3; id++ {
		both(fmt.Sprintf("ADD ANNOTATION 'observed feeding %d' ON birds WHERE id = %d", id, id))
	}
	stored := make([]*summary.Envelope, 3)
	for i := range stored {
		stored[i] = db.EnvelopeFor("birds", types.RowID(i+1)).Clone()
	}

	release := parkMaintenance(t)
	db.SetDegraded(true)
	both("ADD ANNOTATION 'observed roosting on every row' ON birds")
	both("ADD ANNOTATION 'lesions suggest disease' ON birds WHERE id = 2")
	if n := db.MaintenanceStats().Pending; n != 2 {
		t.Fatalf("pending = %d, want the 2 deferred annotations", n)
	}

	tbl, err := db.Catalog().Table("birds")
	if err != nil {
		t.Fatal(err)
	}
	scan := exec.NewScan(tbl, "", exec.FullTable(), nil)
	ec := exec.NewContext(context.Background()).WithBatchSize(1)
	db.stmtMu.RLock()
	if err := scan.Open(ec); err != nil {
		t.Fatal(err)
	}
	first, err := scan.NextBatch(ec)
	if err != nil {
		t.Fatal(err)
	}
	release()
	db.SetDegraded(false)
	db.WaitMaintenanceIdle()
	rows := first.Rows
	for {
		b, err := scan.NextBatch(ec)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows = append(rows, b.Rows...)
	}
	scan.Close()
	db.stmtMu.RUnlock()

	if len(rows) != len(stored) {
		t.Fatalf("scan yielded %d rows, want %d", len(rows), len(stored))
	}
	for i, row := range rows {
		if row.Env == nil || !row.Env.Equal(stored[i]) {
			t.Errorf("row %d: the open scan's envelope is not the one stored when it opened", i+1)
		}
		if fresh := db.EnvelopeFor("birds", types.RowID(i+1)); fresh.Len() <= stored[i].Len() {
			t.Errorf("row %d: the caught-up envelope holds %d annotation(s), want more than %d",
				i+1, fresh.Len(), stored[i].Len())
		}
	}
	difftest.SameState(t, db, shadow)
}

// TestMaintenanceAutoDegrade exercises the latency trigger: a threshold
// below any real maintenance latency flips the engine into degraded mode
// after the first synchronous apply, and draining the queue recovers it.
func TestMaintenanceAutoDegrade(t *testing.T) {
	db := MustOpen(Config{
		CacheDir:                    t.TempDir(),
		DisableMetrics:              true,
		MaintenanceLatencyThreshold: time.Nanosecond,
	})
	defer db.Close()
	maintScaffold(t, db)

	// First annotation applies synchronously and trips the EWMA.
	mustExec(t, db, "ADD ANNOTATION 'trigger note' ON birds WHERE id = 1")
	if st := db.MaintenanceStats(); !st.Degraded {
		t.Fatalf("latency threshold did not degrade the engine: %+v", st)
	}
	// Subsequent annotations defer.
	mustExec(t, db, "ADD ANNOTATION 'deferred note' ON birds WHERE id = 2")
	if st := db.MaintenanceStats(); st.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1: %+v", st.Deferred, st)
	}
	// Catch-up clears the automatic flag.
	db.WaitMaintenanceIdle()
	deadline := time.Now().Add(5 * time.Second)
	for db.MaintenanceStats().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck degraded after drain: %+v", db.MaintenanceStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaintenanceKillAndRecover is the acceptance scenario: the process is
// killed (failpoint) mid-catch-up while degraded, with deferred tasks
// still queued. Recovery rebuilds summaries synchronously from the raw
// annotations in the WAL, so the recovered engine matches a synchronous
// shadow replay exactly — the queue owes durability nothing.
func TestMaintenanceKillAndRecover(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()

	dir := t.TempDir()
	db, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	shadow := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	defer shadow.Close()
	maintScaffold(t, db)
	maintScaffold(t, shadow)

	// Kill the catch-up worker on its first task.
	failpoint.EnableError(failpoint.MaintenanceApply, failpoint.CrashError(failpoint.MaintenanceApply))
	db.SetDegraded(true)
	for i := 0; i < 4; i++ {
		stmt := fmt.Sprintf("ADD ANNOTATION 'observed behavior %d feeding' ON birds WHERE id = %d", i, i%3+1)
		mustExec(t, db, stmt)
		mustExec(t, shadow, stmt)
	}
	// Returns as soon as the worker dies; the queue is frozen.
	db.WaitMaintenanceIdle()
	st := db.MaintenanceStats()
	if st.Pending == 0 || !st.Degraded {
		t.Fatalf("killed worker left no frozen queue: %+v", st)
	}
	// The dying process keeps accepting ingests without hanging on the
	// frozen queue (raw annotation + WAL stay synchronous and durable).
	mustExec(t, db, "ADD ANNOTATION 'post crash note' ON birds WHERE id = 1")
	mustExec(t, shadow, "ADD ANNOTATION 'post crash note' ON birds WHERE id = 1")

	// "Kill" the process and recover from disk.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	failpoint.Reset()
	recovered, info, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if info.Replayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", info)
	}
	if st := recovered.MaintenanceStats(); st.Pending != 0 || st.Degraded {
		t.Fatalf("recovered engine not fresh: %+v", st)
	}
	difftest.SameState(t, recovered, shadow)
}

// TestMaintenanceBackpressure verifies the bounded queue blocks ingestion
// instead of growing without bound, and unblocks as the worker drains.
func TestMaintenanceBackpressure(t *testing.T) {
	db := MustOpen(Config{CacheDir: t.TempDir(), DisableMetrics: true, MaintenanceQueueDepth: 2})
	defer db.Close()
	maintScaffold(t, db)
	db.SetDegraded(true)
	// Far more tasks than the queue holds: each enqueue past the cap waits
	// for the worker, so this completes only if backpressure hands off
	// correctly (a hang here fails the test timeout).
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'note %d feeding' ON birds WHERE id = %d", i, i%3+1))
	}
	db.SetDegraded(false)
	db.WaitMaintenanceIdle()
	if st := db.MaintenanceStats(); st.Applied != 20 || st.Pending != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// One embedded ADD ANNOTATION on a fresh row under the three demo
// instances allocates no more than under the per-annotation maintenance
// loop applyTasks replaced: 531 allocations there, 485 with one envelope
// write per row. Each run annotates a row of its own, so every run does
// the same work.
func TestAnnotateAllocs(t *testing.T) {
	const bound = 531
	db := birdDB(t)
	defer db.Close()
	for id := 4; id <= 120; id++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO birds VALUES (%d, 'b%d', 's%d', 1.0)", id, id, id))
	}
	id := 3
	allocs := testing.AllocsPerRun(100, func() {
		id++
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'observed feeding on stonewort near the shore at dawn' ON birds WHERE id = %d", id))
	})
	if allocs > bound {
		t.Errorf("ADD ANNOTATION allocates %.0f times, want at most %d", allocs, bound)
	}
}
