package engine

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"insightnotes/internal/plan"
)

// equivalenceQueries covers every operator the batch pipeline composes:
// full scans, absorbed filters and projections, joins, sorting, duplicate
// elimination, and LIMIT.
var equivalenceQueries = []string{
	"SELECT a, b, c FROM R",
	"SELECT a, c FROM R WHERE b >= 1",
	"SELECT a FROM R WHERE a >= 1 AND b >= 0",
	"SELECT r.a, r.b, s.y FROM R r, S s WHERE r.a = s.x",
	"SELECT r.a, s.y FROM R r, S s WHERE r.a = s.x AND r.b >= 0 ORDER BY r.a",
	"SELECT DISTINCT b FROM R",
	"SELECT a, b FROM R ORDER BY b LIMIT 3",
}

// indexedEquivalenceQueries run against the table addIndexedTable builds:
// index-equality and index-range access paths, each with a residual
// predicate and a narrowing projection absorbed into the scan. The last
// one replays a memoized index-range choice over a range wide enough to
// span several morsels, so the index path runs on the worker pool too.
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

// renderResult flattens a result to one canonical string: every tuple and
// its rendered summary envelope, in output order. Two executions are
// equivalent iff these strings are byte-identical.
func renderResult(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row.Tuple.String())
		sb.WriteByte('\t')
		if row.Env != nil {
			sb.WriteString(row.Env.Render())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBatchParallelEquivalence is the executor's core correctness property:
// for every query shape, every batch size × worker count combination must
// produce byte-identical output (tuples, summary envelopes, and result row
// counts) to the serial reference. The ordered morsel gather makes parallel
// scans deterministic, so this holds exactly, not just as multisets.
func TestBatchParallelEquivalence(t *testing.T) {
	batchSizes := []int{1, 3, 64, 1024}
	workerCounts := []int{1, 2, 4, 8}
	ctx := context.Background()
	for _, seed := range []int64{7, 0xC0FFEE} {
		db := randomDB(t, seed)
		addIndexedTable(t, db)
		for qi, q := range append(equivalenceQueries, indexedEquivalenceQueries...) {
			ref, err := db.Exec(ctx, q, WithParallelism(1))
			if err != nil {
				t.Fatalf("seed %d: reference %q: %v", seed, q, err)
			}
			want := renderResult(ref)
			if qi >= len(equivalenceQueries) {
				checkIndexedReference(t, db, q, ref, want)
			}
			for _, bs := range batchSizes {
				for _, workers := range workerCounts {
					name := fmt.Sprintf("seed %d batch=%d workers=%d %q", seed, bs, workers, q)
					res, err := db.Exec(ctx, q, WithParallelism(workers), WithBatchSize(bs))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := renderResult(res); got != want {
						t.Errorf("%s: output diverged from serial reference:\n--- serial\n%s--- got\n%s", name, want, got)
					}
					if res.Stats == nil || ref.Stats == nil {
						t.Fatalf("%s: missing statement stats", name)
					}
					if res.Stats.Rows != ref.Stats.Rows {
						t.Errorf("%s: stats rows %d, serial reference %d", name, res.Stats.Rows, ref.Stats.Rows)
					}
				}
			}
		}
	}
}

// checkIndexedReference pins what the indexed queries are for: the serial
// reference went through an index path (over more than one morsel for the
// wide range) and returned what the forced full scan returns.
func checkIndexedReference(t *testing.T, db *DB, q string, ref *Result, want string) {
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
	if strings.HasPrefix(q, "EXECUTE wide") && (scan.Op != "index_range_scan" || scan.Morsels < 2) {
		t.Errorf("%q: want an index range scan over several morsels, got %+v", q, *scan)
	}
	full, err := db.Exec(context.Background(), q, WithPlanOptions(plan.Options{DisableIndexScan: true}))
	if err != nil {
		t.Fatalf("%q forced to a full scan: %v", q, err)
	}
	if got := renderResult(full); got != want {
		t.Errorf("%q: index path diverged from the full scan:\n--- full scan\n%s--- index\n%s", q, got, want)
	}
}

// workersAttr matches the one host-dependent token of EXPLAIN output.
var workersAttr = regexp.MustCompile(`workers=\d+`)

// TestPlanShapeHostIndependent pins that the requested worker count — the
// only thing the host's core count feeds into planning — changes nothing
// observable but the workers= attribute: same operator names in the
// statement stats, same EXPLAIN text, same rows and summary objects.
func TestPlanShapeHostIndependent(t *testing.T) {
	db := randomDB(t, 11)
	addIndexedTable(t, db)
	ctx := context.Background()
	for _, q := range append(equivalenceQueries, indexedEquivalenceQueries[:3]...) {
		var explains, opNames, outputs [2]string
		for i, workers := range []int{1, 4} {
			ex, err := db.Exec(ctx, "EXPLAIN "+q, WithParallelism(workers))
			if err != nil {
				t.Fatalf("EXPLAIN %q: %v", q, err)
			}
			if !strings.Contains(renderResult(ex), fmt.Sprintf("workers=%d", workers)) {
				t.Errorf("%q: EXPLAIN does not show workers=%d:\n%s", q, workers, renderResult(ex))
			}
			explains[i] = workersAttr.ReplaceAllString(renderResult(ex), "workers=n")
			res, err := db.Query(ctx, q, WithParallelism(workers))
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			for _, op := range res.Ops {
				opNames[i] += op.Op + " "
			}
			outputs[i] = renderResult(res)
		}
		if explains[0] != explains[1] {
			t.Errorf("%q: EXPLAIN differs beyond workers=:\n%s\n---\n%s", q, explains[0], explains[1])
		}
		if opNames[0] != opNames[1] {
			t.Errorf("%q: operator names differ: %q vs %q", q, opNames[0], opNames[1])
		}
		if outputs[0] != outputs[1] {
			t.Errorf("%q: rows or summaries differ:\n%s---\n%s", q, outputs[0], outputs[1])
		}
	}
}

// TestScanReportsWorkers verifies EXPLAIN ANALYZE aggregates per-worker
// stats correctly: the scan row reports the pool size, the morsel total,
// and the exact produced row count (not a double count from per-worker
// folds).
func TestScanReportsWorkers(t *testing.T) {
	db := randomDB(t, 42)
	ctx := context.Background()
	res, err := db.Query(ctx, "SELECT a, b, c FROM R", WithParallelism(4))
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
	// R fits one morsel, and the pool never exceeds the morsel count.
	if scan.Workers != 1 || scan.Morsels != 1 {
		t.Errorf("workers = %d morsels = %d, want 1 and 1", scan.Workers, scan.Morsels)
	}
	if scan.Rows != int64(len(res.Rows)) {
		t.Errorf("scan rows = %d, result rows = %d (per-worker stats double-counted?)", scan.Rows, len(res.Rows))
	}
}
