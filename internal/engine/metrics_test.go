package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// metricValue reads one flattened sample by exact name (0 when absent).
func metricValue(t *testing.T, db *DB, name string) float64 {
	t.Helper()
	for _, s := range db.Metrics().Samples() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func TestStatementMetrics(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	mustExec(t, db, "SELECT a FROM t")
	mustExec(t, db, "SELECT a FROM t WHERE a > 1")
	if _, err := db.Exec(context.Background(), "SELECT nope FROM t"); err == nil {
		t.Fatal("expected unknown-column error")
	}

	if got := metricValue(t, db, `insightnotes_engine_statements_total{kind="select"}`); got != 3 {
		t.Errorf("select statements = %v, want 3", got)
	}
	if got := metricValue(t, db, `insightnotes_engine_statements_total{kind="insert"}`); got != 1 {
		t.Errorf("insert statements = %v, want 1", got)
	}
	if got := metricValue(t, db, `insightnotes_engine_statement_errors_total{kind="select"}`); got != 1 {
		t.Errorf("select errors = %v, want 1", got)
	}
	// The scans emitted 3 rows and, with a > 1 absorbed, 2.
	if got := metricValue(t, db, `insightnotes_exec_op_rows_total{op="scan"}`); got != 5 {
		t.Errorf("scan op rows = %v, want 5", got)
	}
	if got := metricValue(t, db, "insightnotes_engine_result_rows_total"); got != 5 {
		t.Errorf("result rows = %v, want 5", got)
	}
	// Statement latency histogram saw every statement.
	if got := metricValue(t, db, `insightnotes_engine_statement_seconds_count{kind="select"}`); got != 3 {
		t.Errorf("select latency count = %v, want 3", got)
	}

	// The index row sources report under their own op labels and access
	// paths. 2000 rows put selective predicates past the cost break-even.
	var sb strings.Builder
	sb.WriteString("BULK INSERT INTO t VALUES (4)")
	for i := 5; i <= 2000; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, "CREATE INDEX ON t (a)")
	mustExec(t, db, "SELECT a FROM t WHERE a = 1234")
	mustExec(t, db, "SELECT a FROM t WHERE a BETWEEN 10 AND 14")
	for name, want := range map[string]float64{
		`insightnotes_exec_op_rows_total{op="index_scan"}`:              1,
		`insightnotes_exec_op_batches_total{op="index_scan"}`:           1,
		`insightnotes_exec_op_rows_total{op="index_range_scan"}`:        5,
		`insightnotes_plan_access_paths_total{path="index_scan"}`:       1,
		`insightnotes_plan_access_paths_total{path="index_range_scan"}`: 1,
		`insightnotes_plan_access_paths_total{path="full_scan"}`:        2,
		`insightnotes_exec_op_batches_total{op="index_range_scan"}`:     1,
	} {
		if got := metricValue(t, db, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestShowMetricsStatement(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "SELECT a FROM t")

	res := mustExec(t, db, "SHOW METRICS")
	if len(res.Rows) == 0 {
		t.Fatal("SHOW METRICS returned no rows")
	}
	if got := res.Schema.Columns[0].Name; got != "metric" {
		t.Fatalf("first column = %q", got)
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		seen[row.Tuple[0].Str()] = true
	}
	for _, want := range []string{
		`insightnotes_engine_statements_total{kind="select"}`,
		"insightnotes_zoomin_cache_puts_total",
		"insightnotes_zoomin_cache_spills_total",
		"insightnotes_plan_plans_total",
	} {
		if !seen[want] {
			t.Errorf("SHOW METRICS missing %s", want)
		}
	}

	// LIKE filters by sample-name pattern.
	res = mustExec(t, db, "SHOW METRICS LIKE 'insightnotes_zoomin_cache_%'")
	if len(res.Rows) == 0 {
		t.Fatal("LIKE filter returned no rows")
	}
	for _, row := range res.Rows {
		if name := row.Tuple[0].Str(); !strings.HasPrefix(name, "insightnotes_zoomin_cache_") {
			t.Errorf("LIKE leaked %s", name)
		}
	}
}

func TestMetricsDisabled(t *testing.T) {
	db, err := Open(Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if db.Metrics() != nil {
		t.Fatal("Metrics() must be nil when disabled")
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "SELECT a FROM t")
	res := mustExec(t, db, "SHOW METRICS")
	if len(res.Rows) != 0 || res.Message != "metrics disabled" {
		t.Fatalf("SHOW METRICS with metrics disabled: %+v", res)
	}
}

// TestZoomInCancelledCounter is the regression test for cancelled zoom-ins:
// a zoom-in whose context is already cancelled must abort on the cache-miss
// re-execution path and increment the cancelled counter, leaving no partial
// cache entry behind.
func TestZoomInCancelledCounter(t *testing.T) {
	// A one-byte budget rejects every Put, so the zoom-in below always
	// misses and must re-execute — under a dead context.
	db, err := Open(Config{CacheDir: t.TempDir(), CacheBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	res := mustExec(t, db, "SELECT a FROM t")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, zerr := db.ZoomIn(ctx, ZoomInRequest{QID: res.QID, Instance: "x", Index: 1})
	if zerr == nil {
		t.Fatal("cancelled zoom-in must fail")
	}
	if !strings.Contains(zerr.Error(), "context canceled") {
		t.Fatalf("unexpected error: %v", zerr)
	}
	if got := metricValue(t, db, "insightnotes_zoomin_cancelled_total"); got != 1 {
		t.Errorf("zoomin cancelled = %v, want 1", got)
	}
	if got := metricValue(t, db, "insightnotes_zoomin_requests_total"); got != 1 {
		t.Errorf("zoomin requests = %v, want 1", got)
	}
	if db.Cache().Contains(res.QID) {
		t.Error("cancelled zoom-in left a cache entry")
	}
}

func TestZoomInCacheCountersExposed(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'wingspan measured in the field' ON birds WHERE id = 1")
	res := mustExec(t, db, "SELECT name FROM birds")
	if _, _, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "ClassBird1", Index: 3}); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, db, "insightnotes_zoomin_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	if got := metricValue(t, db, "insightnotes_engine_annotations"); got != 1 {
		t.Errorf("annotations gauge = %v, want 1", got)
	}
	if got := metricValue(t, db, "insightnotes_engine_envelopes"); got != 1 {
		t.Errorf("envelopes gauge = %v, want 1", got)
	}
	if got := metricValue(t, db, "insightnotes_summary_summarize_total"); got == 0 {
		t.Error("summarize total not exposed")
	}
}

func TestDigestCacheCounters(t *testing.T) {
	db := birdDB(t)
	// The ADD computes each summarize-once digest exactly once (misses):
	// one per linked instance, shared by both matched tuples of its one
	// target.
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id < 3")
	if misses := metricValue(t, db, "insightnotes_summary_digest_misses_total"); misses != 3 {
		t.Errorf("digest misses = %v, want 3", misses)
	}
	// Re-linking backfills from the raw annotations as one batch with a
	// target per tuple: the annotation is summarized once more and its
	// digest is reused once, for the second tuple.
	mustExec(t, db, "UNLINK SUMMARY ClassBird1 FROM birds")
	mustExec(t, db, "LINK SUMMARY ClassBird1 TO birds")
	if misses := metricValue(t, db, "insightnotes_summary_digest_misses_total"); misses != 4 {
		t.Errorf("digest misses = %v, want 4", misses)
	}
	if hits := metricValue(t, db, "insightnotes_summary_digest_hits_total"); hits != 1 {
		t.Errorf("digest hits = %v, want 1", hits)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Config{
		CacheDir:           t.TempDir(),
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       NewJSONSlowQueryLog(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, db, "SELECT a FROM t WHERE a > 0")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("slow log lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	var e SlowQueryEntry
	if err := json.Unmarshal([]byte(lines[2]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "select" || e.Statement != "SELECT a FROM t WHERE a > 0" {
		t.Fatalf("entry = %+v", e)
	}
	if e.Rows != 2 || e.OpRows == 0 || e.WallMicros < 0 {
		t.Fatalf("entry counters = %+v", e)
	}
	if len(e.Ops) == 0 {
		t.Fatal("SELECT slow entry missing per-op rows")
	}
	foundScan := false
	for _, op := range e.Ops {
		if op.Op == "scan" && op.Rows == 2 {
			foundScan = true
		}
	}
	if !foundScan {
		t.Fatalf("scan op row missing: %+v", e.Ops)
	}
	if got := metricValue(t, db, "insightnotes_engine_slow_queries_total"); got != 3 {
		t.Errorf("slow queries = %v, want 3", got)
	}

	// A cancelled statement records its cause.
	buf.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, qerr := db.Query(ctx, "SELECT a FROM t"); qerr == nil {
		t.Fatal("expected cancellation error")
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &e); err != nil {
		t.Fatal(err)
	}
	if e.Cancelled != "cancel" || e.Error == "" {
		t.Fatalf("cancelled entry = %+v", e)
	}
}

// TestTimingSampling verifies that sampled statements populate the
// per-operator latency histograms without requiring timing on every
// statement.
func TestTimingSampling(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	for i := 0; i < 2*timingSampleInterval; i++ {
		mustExec(t, db, "SELECT a FROM t")
	}
	if got := metricValue(t, db, `insightnotes_exec_op_seconds_count{op="scan"}`); got == 0 {
		t.Error("sampled timing never populated the op latency histogram")
	}
}

func TestPrometheusEndToEnd(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "SELECT a FROM t")
	var b strings.Builder
	if err := db.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE insightnotes_engine_statements_total counter",
		"# TYPE insightnotes_engine_statement_seconds histogram",
		`insightnotes_engine_statements_total{kind="select"} 1`,
		"insightnotes_zoomin_cache_puts_total 1",
		`insightnotes_plan_access_paths_total{path="full_scan"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "insightnotes_engine_statement_seconds_bucket{kind=\"select\",le=\"+Inf\"} 0") {
		t.Error("select latency histogram empty")
	}
}
