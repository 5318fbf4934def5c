package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"insightnotes/internal/difftest"
	"insightnotes/internal/plan"
)

// equivalenceQueries covers every operator the batch pipeline composes:
// full scans, absorbed filters and projections, joins, sorting, duplicate
// elimination, grouping, and LIMIT.
var equivalenceQueries = []string{
	"SELECT a, b, c FROM R",
	"SELECT a, c FROM R WHERE b >= 1",
	"SELECT a FROM R WHERE a >= 1 AND b >= 0",
	"SELECT r.a, r.b, s.y FROM R r, S s WHERE r.a = s.x",
	"SELECT r.a, s.y FROM R r, S s WHERE r.a = s.x AND r.b >= 0 ORDER BY r.a",
	"SELECT DISTINCT b FROM R",
	"SELECT b, COUNT(*) FROM R GROUP BY b",
	"SELECT a, b FROM R ORDER BY b LIMIT 3",
}

// indexedEquivalenceQueries run against the table addIndexedTable builds:
// index-equality and index-range access paths, each with a residual
// predicate and a narrowing projection absorbed into the scan. The last
// one replays a memoized index-range choice over a range wide enough to
// fill several batches, so the index path crosses batch boundaries too.
var indexedEquivalenceQueries = []string{
	"SELECT v FROM T WHERE k = 82 AND v >= 0",
	"SELECT k, v FROM T WHERE k BETWEEN 118 AND 123 AND v <> 3",
	"SELECT t.v, r.c FROM T t, R r WHERE t.k = 240 AND r.a = t.v",
	"EXECUTE wide USING 10, 2500",
}

// addIndexedTable adds T(k, v, pad): 3000 rows with an index on k, every
// 40th row or so annotated, large enough that the cost model picks the index
// for selective predicates on k. It also prepares "wide" and executes it
// once over a narrow range, which memoizes the index-range path for every
// later execution whatever its bounds.
func addIndexedTable(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE T (k INT, v INT, pad TEXT)")
	var sb strings.Builder
	sb.WriteString("BULK INSERT INTO T VALUES ")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'pad%d')", i, i%7, i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, "CREATE INDEX ON T (k)")
	mustExec(t, db, "LINK SUMMARY Cls TO T")
	mustExec(t, db, "LINK SUMMARY Snp TO T")
	// Coverage rotates over a kept column, a projected-away column and the
	// whole row, so curation has something to drop and something to keep.
	for i := 0; i < 3000; i += 40 {
		mustExec(t, db, fmt.Sprintf(
			"ADD ANNOTATION 'observed feeding behavior near nest %d' AUTHOR 'ann' ON T%s WHERE k = %d",
			i, []string{" (v)", " (pad)", ""}[i/40%3], i+i%3))
	}
	mustExec(t, db, "PREPARE wide AS SELECT k, v FROM T WHERE k BETWEEN $1 AND $2 AND v <> 3")
	mustExec(t, db, "EXECUTE wide USING 100, 102")
}

// TestBatchParallelEquivalence is the executor's core correctness property:
// for every query shape, every batch size must produce the same rows in
// the same order, with Envelope.Equal summaries and the same result row
// count, as a run at the default batch size. Scans emit rows in source
// order, so this holds exactly, not just as multisets.
func TestBatchParallelEquivalence(t *testing.T) {
	batchSizes := []int{1, 3, 64, 1024}
	ctx := context.Background()
	for _, seed := range []int64{7, 0xC0FFEE} {
		db := randomDB(t, seed)
		addIndexedTable(t, db)
		for qi, q := range append(equivalenceQueries, indexedEquivalenceQueries...) {
			ref, err := db.Exec(ctx, q)
			if err != nil {
				t.Fatalf("seed %d: reference %q: %v", seed, q, err)
			}
			if qi >= len(equivalenceQueries) {
				checkIndexedReference(t, db, q, ref)
			}
			for _, bs := range batchSizes {
				name := fmt.Sprintf("seed %d batch=%d %q", seed, bs, q)
				res, err := db.Exec(ctx, q, WithBatchSize(bs))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := difftest.Rows(res.Rows, ref.Rows); d != "" {
					t.Errorf("%s: output diverged from the default-batch reference: %s", name, d)
				}
				if res.Stats == nil || ref.Stats == nil {
					t.Fatalf("%s: missing statement stats", name)
				}
				if res.Stats.Rows != ref.Stats.Rows {
					t.Errorf("%s: stats rows %d, reference %d", name, res.Stats.Rows, ref.Stats.Rows)
				}
			}
		}
	}
}

// checkIndexedReference pins what the indexed queries are for: the
// reference went through an index path (over more than one batch for the
// wide range) and returned what the forced full scan returns.
func checkIndexedReference(t *testing.T, db *DB, q string, ref *Result) {
	t.Helper()
	var scan *OpStat
	for i := range ref.Ops {
		if strings.HasPrefix(ref.Ops[i].Op, "index_") {
			scan = &ref.Ops[i]
		}
	}
	if scan == nil {
		t.Fatalf("%q: no index path in ops: %+v", q, ref.Ops)
	}
	if strings.HasPrefix(q, "EXECUTE wide") && (scan.Op != "index_range_scan" || scan.Batches < 2) {
		t.Errorf("%q: want an index range scan over several batches, got %+v", q, *scan)
	}
	full, err := db.Exec(context.Background(), q, WithPlanOptions(plan.Options{DisableIndexScan: true}))
	if err != nil {
		t.Fatalf("%q forced to a full scan: %v", q, err)
	}
	if d := difftest.Rows(ref.Rows, full.Rows); d != "" {
		t.Errorf("%q: index path diverged from the full scan: %s", q, d)
	}
}

// TestScanRowsAreResultRows pins that a scan's reported row count is the
// number of rows it produced: a plain scan's rows are the result's rows.
func TestScanRowsAreResultRows(t *testing.T) {
	db := randomDB(t, 42)
	res, err := db.Query(context.Background(), "SELECT a, b, c FROM R")
	if err != nil {
		t.Fatal(err)
	}
	var scan *OpStat
	for i := range res.Ops {
		if res.Ops[i].Op == "scan" {
			scan = &res.Ops[i]
			break
		}
	}
	if scan == nil {
		t.Fatalf("no scan operator in ops: %+v", res.Ops)
	}
	if scan.Rows != int64(len(res.Rows)) {
		t.Errorf("scan rows = %d, result rows = %d", scan.Rows, len(res.Rows))
	}
}

// TestKeyedProbeMatchesFullScan pins the keyed probe: a hash join whose
// probe side is an indexed table reads, when the build side holds few
// enough distinct keys, only the probe rows holding one of them, through
// the index — and returns the forced full scan's rows and summaries.
// Q's build keys repeat and include NULLs; P.f holds P.id as a FLOAT (a
// few rows off by a half), so an INT key meets a FLOAT column; the third
// query's build side is over the break-even and falls back to the full
// scan; a P row the first query joins is deleted and the queries rerun.
func TestKeyedProbeMatchesFullScan(t *testing.T) {
	db := randomDB(t, 7)
	mustExec(t, db, "CREATE TABLE P (id INT, f FLOAT, name TEXT)")
	mustExec(t, db, "CREATE TABLE Q (sid INT, pid INT, obs INT)")
	var p, q strings.Builder
	p.WriteString("BULK INSERT INTO P VALUES ")
	for i := 1; i <= 500; i++ {
		f := fmt.Sprint(i, ".0")
		if i%7 == 0 {
			f = fmt.Sprint(i, ".5")
		}
		fmt.Fprintf(&p, "(%d, %s, 'n%d'), ", i, f, i)
	}
	// Q row i keys P row 1 + 37i%500 under obs = i%20, so each obs value
	// selects 50 rows holding 25 keys twice, out of row-id order; two more
	// rows hold NULL.
	q.WriteString("BULK INSERT INTO Q VALUES (1000, NULL, 3), (1001, NULL, 5), ")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&q, "(%d, %d, %d), ", i, 1+37*i%500, i%20)
	}
	mustExec(t, db, strings.TrimSuffix(p.String(), ", "))
	mustExec(t, db, strings.TrimSuffix(q.String(), ", "))
	mustExec(t, db, "CREATE INDEX ON P (id)")
	mustExec(t, db, "CREATE INDEX ON P (f)")
	for _, stmt := range []string{"LINK SUMMARY Cls TO P", "LINK SUMMARY Snp TO P", "LINK SUMMARY Cls TO Q"} {
		mustExec(t, db, stmt)
	}
	for i := 1; i <= 500; i += 3 {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'observed feeding behavior near nest %d' AUTHOR 'ann' ON P%s WHERE id = %d",
			i, []string{"", " (name)", " (f)"}[i%3], i))
	}
	for i := 0; i < 1000; i += 9 {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'sighting %d logged' AUTHOR 'obs' ON Q WHERE sid = %d", i, i))
	}
	queries := []struct {
		q        string
		op       string // the probe scan's op label
		scanRows int64  // rows it reads
	}{
		{"SELECT p.id, p.name, q.sid FROM P p, Q q WHERE p.id = q.pid AND q.obs = 3", "index_keys_scan", 25},
		{"SELECT p.name, q.sid, p.f FROM P p, Q q WHERE p.f = q.pid AND q.obs = 5", "index_keys_scan", 25},
		{"SELECT p.id, q.sid FROM P p, Q q WHERE q.pid = p.id AND q.obs < 8", "scan", 500},
		{"SELECT p.id, q.sid FROM P p, Q q WHERE q.pid = p.id AND q.obs = 3 AND p.name <> 'n52'", "index_keys_scan", 25},
	}
	check := func(deleted int64) {
		t.Helper()
		for _, c := range queries {
			res := mustExec(t, db, c.q)
			full, err := db.Exec(context.Background(), c.q, WithPlanOptions(plan.Options{DisableIndexScan: true}))
			if err != nil {
				t.Fatal(err)
			}
			if d := difftest.Rows(res.Rows, full.Rows); d != "" {
				t.Errorf("%q: keyed probe diverged from the full scan: %s", c.q, d)
			}
			if len(res.Rows) == 0 {
				t.Errorf("%q: no rows", c.q)
			}
			probe := res.Ops[len(res.Ops)-2] // the join's left child, before the build scan
			if probe.Op != c.op || probe.Rows > c.scanRows-deleted {
				t.Errorf("%q: probe %+v; want %s over at most %d rows\nops: %+v", c.q, probe, c.op, c.scanRows-deleted, res.Ops)
			}
		}
	}
	check(0)
	mustExec(t, db, "DELETE FROM P WHERE id = 52")
	check(1)
}
