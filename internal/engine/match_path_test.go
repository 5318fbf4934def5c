package engine

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"insightnotes/internal/catalog"
	"insightnotes/internal/difftest"
	"insightnotes/internal/plan"
	"insightnotes/internal/wal"
)

// TestDMLMatchIndependentOfAccessPath pins that UPDATE, DELETE and ADD
// ANNOTATION match the same rows whichever access path reads them: the
// same statement stream on an engine that may read through the index and
// on one forced to full scans ends in the same canonical state, with
// byte-identical WAL record bodies, and fails the same statements the same
// way. The table's ids repeat and were inserted out of order, so index
// candidates arrive in key order, not row-id order.
func TestDMLMatchIndependentOfAccessPath(t *testing.T) {
	setup := []string{
		"CREATE TABLE t (id INT, grp INT, name TEXT)",
		"CREATE INDEX ON t (id)",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"LINK SUMMARY C TO t",
	}
	var ins []string
	for i := 199; i >= 0; i-- {
		ins = append(ins, fmt.Sprintf("(%d, %d, 'n%d')", (i*7)%50, i%4, i))
	}
	ins = append(ins, "(NULL, 1, 'no id')")
	setup = append(setup, "INSERT INTO t VALUES "+strings.Join(ins, ", "))

	// Each WHERE is one the chooser serves through the index on id.
	indexed := []string{
		"id = 3",                  // equality, duplicate keys
		"id = 3.0",                // FLOAT literal against the INT index
		"id BETWEEN 10 AND 12",    // range
		"45 < id",                 // range written literal-first
		"id = 7 AND grp = 3",      // indexed conjunct AND unindexed one
		"id = 9 AND name <> 'n1'", // indexed conjunct AND unindexed one
	}
	var stream []string
	for i, w := range indexed {
		stream = append(stream,
			fmt.Sprintf("ADD ANNOTATION 'feeding at dawn, note %d' ON t WHERE %s", i, w),
			fmt.Sprintf("UPDATE t SET name = 'u%d' WHERE %s", i, w),
			fmt.Sprintf("ADD ANNOTATION 'second look %d' ON t (name) WHERE %s", i, w),
		)
	}
	stream = append(stream,
		"UPDATE t SET grp = 9 WHERE id = NULL",                          // NULL comparison: no row
		"ADD ANNOTATION 'null probe' ON t WHERE id >= NULL",             // fails: matches nothing
		"ADD ANNOTATION 'nobody' ON t WHERE id = 999",                   // fails: matches nothing
		"ADD ANNOTATION 'nobody either' ON t WHERE 48 < id AND grp = 7", // fails
		"DELETE FROM t WHERE id = 3",
		"DELETE FROM t WHERE 46 < id AND grp = 1",
		"UPDATE t SET name = 'after delete' WHERE id BETWEEN 2 AND 4",
		"ADD ANNOTATION 'after delete' ON t WHERE id = 4.0",
	)

	type run struct {
		db   *DB
		dir  string
		errs []string
	}
	exec := func(opts plan.Options) *run {
		r := &run{dir: t.TempDir()}
		cfg := durableConfig(t)
		cfg.PlanOptions = opts
		db, _, err := OpenDurable(cfg, DurabilityOptions{Dir: r.dir, AutoCheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		r.db = db
		for _, s := range setup {
			mustExec(t, db, s)
		}
		for _, s := range stream {
			msg := "ok"
			res, err := db.Exec(context.Background(), s)
			if err != nil {
				msg = "error: " + err.Error()
			} else {
				msg = res.Message
			}
			r.errs = append(r.errs, msg)
		}
		return r
	}
	idx, full := exec(plan.Options{}), exec(plan.Options{DisableIndexScan: true})

	for _, w := range indexed {
		res := mustExec(t, idx.db, "EXPLAIN SELECT name FROM t WHERE "+w)
		var plan strings.Builder
		for _, row := range res.Rows {
			plan.WriteString(row.Tuple[0].Str() + "\n")
		}
		if !strings.Contains(plan.String(), "path=index") {
			t.Errorf("WHERE %s is not served by the index:\n%s", w, plan.String())
		}
	}
	for i, s := range stream {
		if idx.errs[i] != full.errs[i] {
			t.Errorf("%s:\n index path: %s\n full scan:  %s", s, idx.errs[i], full.errs[i])
		}
	}
	const noMatch = "error: engine: annotation matches no tuples of t"
	if n := strings.Count(strings.Join(full.errs, "\n"), noMatch); n != 3 {
		t.Errorf("%d statements failed with %q, want 3: %q", n, noMatch, full.errs)
	}
	difftest.SameState(t, idx.db, full.db)
	records := func(r *run) []wal.Record {
		var recs []wal.Record
		if _, err := wal.Replay(filepath.Join(r.dir, walFileName), 0, func(rec wal.Record) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	gi, gf := records(idx), records(full)
	if len(gi) != len(gf) {
		t.Fatalf("index path logged %d records, full scan %d", len(gi), len(gf))
	}
	for i := range gi {
		if gi[i].Type != gf[i].Type || !bytes.Equal(gi[i].Data, gf[i].Data) {
			t.Errorf("record %d differs: index path %s %x, full scan %s %x", i, gi[i].Type, gi[i].Data, gf[i].Type, gf[i].Data)
		}
	}
}

// An unindexed match copies only the rows its predicate accepts: matching
// one row of 2 000 allocates far less than one row slot per table row.
func TestUnindexedMatchCopiesOnlyMatches(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE obs (id INT, name TEXT)")
	vals := make([]string, 2000)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, 'n%d')", i, i)
	}
	mustExec(t, db, "BULK INSERT INTO obs VALUES "+strings.Join(vals, ", "))
	tbl, err := db.cat.Table("obs")
	if err != nil {
		t.Fatal(err)
	}
	where := parseWhere(t, "id = 1234")
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if rows, err := db.matchRows(tbl, where); err != nil || len(rows) != 1 {
			t.Fatalf("matchRows = %d rows, %v; want 1", len(rows), err)
		}
	}
	runtime.ReadMemStats(&after)
	perMatch := (after.TotalAlloc - before.TotalAlloc) / runs
	if slots := uint64(len(vals)) * uint64(unsafe.Sizeof(catalog.Row{})); perMatch > slots/10 {
		t.Errorf("a one-row unindexed match allocates %d bytes; one slot per row is %d", perMatch, slots)
	}
}
