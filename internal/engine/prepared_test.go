package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// --- prepared statement lifecycle ---

func TestPrepareExecuteDeallocate(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE birds (id INT, name TEXT)")
	mustExec(t, db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan'), (3, 'Whooper Swan')")

	res := mustExec(t, db, "PREPARE by_id AS SELECT name FROM birds WHERE id = $1")
	if !strings.Contains(res.Message, "1 parameter(s)") {
		t.Fatalf("PREPARE message = %q", res.Message)
	}

	res = mustExec(t, db, "EXECUTE by_id USING 2")
	if len(res.Rows) != 1 || res.Rows[0].Tuple[0].String() != "Mute Swan" {
		t.Fatalf("EXECUTE by_id USING 2 = %v", res.Rows)
	}
	// Parenthesized argument form, different value, case-insensitive name.
	res = mustExec(t, db, "EXECUTE BY_ID (3)")
	if len(res.Rows) != 1 || res.Rows[0].Tuple[0].String() != "Whooper Swan" {
		t.Fatalf("EXECUTE BY_ID (3) = %v", res.Rows)
	}

	mustExec(t, db, "DEALLOCATE by_id")
	if _, err := db.Exec(context.Background(), "EXECUTE by_id USING 1"); err == nil ||
		!strings.Contains(err.Error(), "unknown prepared statement") {
		t.Fatalf("EXECUTE after DEALLOCATE: %v", err)
	}
}

func TestPrepareErrors(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "PREPARE p AS SELECT a FROM t WHERE a = $1")

	for stmt, want := range map[string]string{
		"PREPARE p AS SELECT a FROM t":                "already exists",
		"PREPARE gap AS SELECT a FROM t WHERE a = $2": "uses $2 but not $1",
		"EXECUTE p":              "expects 1 parameter(s), got 0",
		"EXECUTE p USING 1, 2":   "expects 1 parameter(s), got 2",
		"EXECUTE nobody USING 1": "unknown prepared statement",
		"DEALLOCATE nobody":      "unknown prepared statement",
		"EXECUTE p USING a":      "must be constants",
	} {
		if _, err := db.Exec(context.Background(), stmt); err == nil ||
			!strings.Contains(err.Error(), want) {
			t.Errorf("%s: error = %v, want substring %q", stmt, err, want)
		}
	}
}

// A prepared mutation binds parameters into the write path; each EXECUTE
// applies once.
func TestPreparedMutation(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, db, "PREPARE ins AS INSERT INTO t VALUES ($1, $2)")
	for i := 1; i <= 3; i++ {
		mustExec(t, db, fmt.Sprintf("EXECUTE ins USING %d, 'row-%d'", i, i))
	}
	res := mustExec(t, db, "SELECT a, b FROM t ORDER BY a")
	if len(res.Rows) != 3 || res.Rows[2].Tuple[1].String() != "row-3" {
		t.Fatalf("rows after 3 prepared inserts = %v", res.Rows)
	}
}

// --- plan cache behavior ---

func TestPlanCacheHitsOnRepeatedSelect(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")

	const q = "SELECT a FROM t WHERE a >= 2 ORDER BY a"
	mustExec(t, db, q)
	base := db.PlanCacheStats()
	if base.Entries == 0 {
		t.Fatal("first SELECT did not populate the plan cache")
	}
	// Same text modulo whitespace: normalization maps it to the same entry.
	res := mustExec(t, db, "SELECT a  FROM t\n\tWHERE a >= 2 ORDER BY a;")
	st := db.PlanCacheStats()
	if st.Hits != base.Hits+1 {
		t.Fatalf("hits = %d after repeat, want %d", st.Hits, base.Hits+1)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("cached SELECT rows = %v", res.Rows)
	}
	// Non-SELECT traffic must not probe the cache (misses stay flat).
	mustExec(t, db, "INSERT INTO t VALUES (4)")
	if after := db.PlanCacheStats(); after.Misses != st.Misses {
		t.Fatalf("INSERT inflated plan-cache misses: %d -> %d", st.Misses, after.Misses)
	}
}

func TestPlanCacheSharedBetweenExecuteAndAdhoc(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")

	// PREPARE warms the cache under the template key; the first EXECUTE
	// must already hit.
	mustExec(t, db, "PREPARE scan AS SELECT a FROM t WHERE a = $1")
	base := db.PlanCacheStats()
	mustExec(t, db, "EXECUTE scan USING 1")
	if st := db.PlanCacheStats(); st.Hits != base.Hits+1 {
		t.Fatalf("first EXECUTE after PREPARE: hits %d -> %d, want warm hit", base.Hits, st.Hits)
	}
	// Parameter values don't split the cache key.
	mustExec(t, db, "EXECUTE scan USING 2")
	if st := db.PlanCacheStats(); st.Hits != base.Hits+2 {
		t.Fatalf("second EXECUTE: hits = %d, want %d", st.Hits, base.Hits+2)
	}
}

// The regression test for ISSUE 10's acceptance criterion: a cached plan
// must be dropped when DDL or an index change could invalidate it.
func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2))
	}

	const q = "SELECT b FROM t WHERE a = 7"
	mustExec(t, db, q)
	if st := db.PlanCacheStats(); st.Entries == 0 {
		t.Fatal("SELECT did not populate the plan cache")
	}

	// CREATE INDEX drops the cache: the memoized full-scan choice is now
	// stale (an index dive would win).
	mustExec(t, db, "CREATE INDEX ON t (a)")
	if st := db.PlanCacheStats(); st.Entries != 0 {
		t.Fatalf("entries = %d after CREATE INDEX, want 0", st.Entries)
	}
	res := mustExec(t, db, q)
	if len(res.Rows) != 1 || res.Rows[0].Tuple[0].Int() != 14 {
		t.Fatalf("post-index SELECT = %v", res.Rows)
	}

	// DROP TABLE drops the cache too; re-creating the table with a
	// different shape must not serve the old plan.
	mustExec(t, db, "DROP TABLE t")
	if st := db.PlanCacheStats(); st.Entries != 0 {
		t.Fatalf("entries = %d after DROP TABLE, want 0", st.Entries)
	}
	mustExec(t, db, "CREATE TABLE t (a INT, b INT, c TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 99, 'x')")
	res = mustExec(t, db, q)
	if len(res.Rows) != 1 || res.Rows[0].Tuple[0].Int() != 99 {
		t.Fatalf("SELECT after re-create = %v", res.Rows)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db, err := Open(Config{CacheDir: t.TempDir(), PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "SELECT a FROM t")
	mustExec(t, db, "SELECT a FROM t")
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache reports %+v", st)
	}
	// Prepared statements still work without the cache.
	mustExec(t, db, "PREPARE p AS SELECT a FROM t WHERE a = $1")
	res := mustExec(t, db, "EXECUTE p USING 1")
	if len(res.Rows) != 1 {
		t.Fatalf("EXECUTE without plan cache = %v", res.Rows)
	}
}

// --- bulk ingest ---

func TestBulkInsert(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	res := mustExec(t, db, "BULK INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	if !strings.Contains(res.Message, "3 row(s) bulk inserted") {
		t.Fatalf("message = %q", res.Message)
	}
	if got := mustExec(t, db, "SELECT a FROM t ORDER BY a"); len(got.Rows) != 3 {
		t.Fatalf("rows = %v", got.Rows)
	}
	// All-or-nothing: a malformed row anywhere aborts the whole batch
	// before any row is applied.
	if _, err := db.Exec(context.Background(),
		"BULK INSERT INTO t VALUES (4, 'd'), (5)"); err == nil {
		t.Fatal("arity-mismatched batch succeeded")
	}
	if got := mustExec(t, db, "SELECT a FROM t"); len(got.Rows) != 3 {
		t.Fatalf("failed batch left partial rows: %v", got.Rows)
	}
}

func TestBulkInsertDurableReplay(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "BULK INSERT INTO t VALUES (1), (2), (3), (4), (5)")
	db.Close()

	re, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res := mustExec(t, re, "SELECT COUNT(*) FROM t")
	if res.Rows[0].Tuple[0].Int() != 5 {
		t.Fatalf("replayed bulk rows = %v", res.Rows[0].Tuple[0])
	}
}

func TestAnnotateBatch(t *testing.T) {
	db := birdDB(t)
	defer db.Close()
	reqs := make([]AnnotationRequest, 6)
	for i := range reqs {
		reqs[i] = AnnotationRequest{
			Text:  fmt.Sprintf("observed feeding in flocks #%d", i),
			Table: "birds",
		}
	}
	ids, tuples, err := db.AnnotateBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 || tuples == 0 {
		t.Fatalf("AnnotateBatch ids=%d tuples=%d", len(ids), tuples)
	}
	res := mustExec(t, db, "SELECT id FROM birds WHERE id = 1")
	if res.Rows[0].Env == nil || res.Rows[0].Env.IsEmpty() {
		t.Fatal("batched annotations produced no summary envelope")
	}
	if _, _, err := db.AnnotateBatch(nil); err == nil {
		t.Fatal("empty batch succeeded")
	}
}

// A degraded engine must defer a whole batch to the maintenance queue in
// one feed — not split it — and catch up cleanly.
func TestAnnotateBatchDegraded(t *testing.T) {
	db := birdDB(t)
	defer db.Close()
	db.SetDegraded(true)
	reqs := make([]AnnotationRequest, 8)
	for i := range reqs {
		reqs[i] = AnnotationRequest{Text: fmt.Sprintf("flock sighting %d", i), Table: "birds"}
	}
	if _, _, err := db.AnnotateBatch(reqs); err != nil {
		t.Fatal(err)
	}
	st := db.MaintenanceStats()
	// 8 annotations × 3 linked instances = 24 deferred tasks.
	if st.Pending == 0 || !st.Degraded {
		t.Fatalf("degraded batch not deferred: %+v", st)
	}
	db.SetDegraded(false)
	db.WaitMaintenanceIdle()
	if st := db.MaintenanceStats(); st.Pending != 0 {
		t.Fatalf("catch-up left %d pending", st.Pending)
	}
}

func TestAnnotateBatchDurableReplay(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE birds (id INT, name TEXT)")
	mustExec(t, db, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	if _, _, err := db.AnnotateBatch([]AnnotationRequest{
		{Text: "first batched note", Table: "birds"},
		{Text: "second batched note", Table: "birds"},
	}); err != nil {
		t.Fatal(err)
	}
	before := len(mustExec(t, db, "SHOW ANNOTATIONS ON birds").Rows)
	if before == 0 {
		t.Fatal("batch produced no annotation bindings")
	}
	db.Close()

	re, _, err := OpenDurable(Config{CacheDir: t.TempDir()}, DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res := mustExec(t, re, "SHOW ANNOTATIONS ON birds")
	if len(res.Rows) != before {
		t.Fatalf("replayed batch rows = %d, want %d", len(res.Rows), before)
	}
}

// --- benchmarks (E18 in EXPERIMENTS.md) ---

// BenchmarkAdhocSelect / BenchmarkPreparedExecute compare the cold path
// (lex + parse + cost every time — plan cache disabled) against EXECUTE of
// a prepared template (cache hit: template reuse + access-path memo).
func BenchmarkAdhocSelect(b *testing.B) {
	db, err := Open(Config{CacheDir: b.TempDir(), DisableMetrics: true, PlanCacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchScanTable(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(context.Background(),
			fmt.Sprintf("SELECT b FROM t WHERE a = %d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreparedExecute(b *testing.B) {
	db, err := Open(Config{CacheDir: b.TempDir(), DisableMetrics: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchScanTable(b, db)
	if _, err := db.Exec(context.Background(), "PREPARE q AS SELECT b FROM t WHERE a = $1"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(context.Background(),
			fmt.Sprintf("EXECUTE q USING %d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScanTable(b *testing.B, db *DB) {
	b.Helper()
	if _, err := db.Exec(context.Background(), "CREATE TABLE t (a INT, b TEXT)"); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("BULK INSERT INTO t VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'bird-%d')", i, i)
	}
	if _, err := db.Exec(context.Background(), sb.String()); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "CREATE INDEX ON t (a)"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRowInsertDurable / BenchmarkBulkInsertDurable measure the bulk
// path's amortization on a durable engine: one parse, one lock hold, one
// WAL record, and one commit fsync per batch instead of per row.
// Reported as rows/sec via b.N rows each.
func BenchmarkRowInsertDurable(b *testing.B) {
	db, _, err := OpenDurable(Config{CacheDir: b.TempDir(), DisableMetrics: true},
		DurabilityOptions{Dir: b.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(context.Background(), "CREATE TABLE t (id INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(context.Background(),
			fmt.Sprintf("INSERT INTO t VALUES (%d, 'bird-%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

func BenchmarkBulkInsertDurable(b *testing.B) {
	const batch = 100
	db, _, err := OpenDurable(Config{CacheDir: b.TempDir(), DisableMetrics: true},
		DurabilityOptions{Dir: b.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(context.Background(), "CREATE TABLE t (id INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		sb.WriteString("BULK INSERT INTO t VALUES ")
		for j := 0; j < batch; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			id := i*batch + j
			fmt.Fprintf(&sb, "(%d, 'bird-%d')", id, id)
		}
		if _, err := db.Exec(context.Background(), sb.String()); err != nil {
			b.Fatal(err)
		}
		rows += batch
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}
