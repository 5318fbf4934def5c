package insightnotes_test

// Public-API integration tests: everything here goes through the root
// package exactly the way a downstream user would.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"insightnotes"
)

func openDB(t *testing.T) *insightnotes.DB { return openWith(t, insightnotes.Config{}) }

// openWith opens a database whose zoom-in cache lives in the test's temp
// directory and which is closed when the test ends.
func openWith(t *testing.T, cfg insightnotes.Config) *insightnotes.DB {
	t.Helper()
	cfg.CacheDir = t.TempDir()
	db, err := insightnotes.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func run(t *testing.T, db *insightnotes.DB, stmt string) *insightnotes.Result {
	t.Helper()
	res, err := db.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return res
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	db := openDB(t)
	run(t, db, `CREATE TABLE birds (id INT, name TEXT, wingspan FLOAT)`)
	run(t, db, `INSERT INTO birds VALUES (1, 'Swan Goose', 1.8), (2, 'Mute Swan', 2.2)`)
	run(t, db, `CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')`)
	run(t, db, `TRAIN SUMMARY C ('feeding foraging stonewort flock', 'Behavior'),
		('photo camera record duplicate', 'Other')`)
	run(t, db, `LINK SUMMARY C TO birds`)
	run(t, db, `ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1`)
	run(t, db, `ADD ANNOTATION 'photo from the camera archive' ON birds WHERE id = 1`)

	res, err := db.Query(context.Background(), `SELECT id, name FROM birds WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Env == nil {
		t.Fatalf("rows = %v", res.Rows)
	}
	render := res.Rows[0].Env.Render()
	if !strings.Contains(render, "(Behavior, 1)") || !strings.Contains(render, "(Other, 1)") {
		t.Errorf("summary = %q", render)
	}

	zoom := run(t, db, fmt.Sprintf(`ZOOMIN REFERENCE QID %d ON C INDEX 1`, res.QID))
	if zoom.Count != 1 || zoom.ZoomAnnotations[0].Annotations[0].Text != "observed feeding on stonewort" {
		t.Fatalf("zoom = %+v", zoom.ZoomAnnotations)
	}
}

func TestPublicAPIProgrammaticAnnotation(t *testing.T) {
	db := openDB(t)
	run(t, db, `CREATE TABLE t (a INT)`)
	run(t, db, `INSERT INTO t VALUES (1), (2)`)
	run(t, db, `CREATE SUMMARY INSTANCE S TYPE Cluster`)
	run(t, db, `LINK SUMMARY S TO t`)
	id, n, err := db.Annotate(insightnotes.AnnotationRequest{
		Text:  "a note covering every tuple",
		Table: "t",
	})
	if err != nil || id == 0 || n != 2 {
		t.Fatalf("Annotate = %d, %d, %v", id, n, err)
	}
	// Multi-target attachment across scopes.
	run(t, db, `CREATE TABLE u (b INT)`)
	run(t, db, `INSERT INTO u VALUES (7)`)
	_, n, err = db.AnnotateTargets(
		insightnotes.Annotation{Text: "shared across tables", Author: "tester"},
		[]insightnotes.TargetSpec{{Table: "t"}, {Table: "u"}},
	)
	if err != nil || n != 3 {
		t.Fatalf("AnnotateTargets = %d, %v", n, err)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	if insightnotes.RCO().Name() != "RCO" || insightnotes.LRU().Name() != "LRU" {
		t.Error("policy names wrong")
	}
	db := openWith(t, insightnotes.Config{CachePolicy: insightnotes.LRU()})
	if db.Cache().PolicyName() != "LRU" {
		t.Error("configured policy not applied")
	}
}

func TestPublicAPITraceAndShow(t *testing.T) {
	db := openDB(t)
	run(t, db, `CREATE TABLE t (a INT)`)
	run(t, db, `INSERT INTO t VALUES (1)`)
	res, err := db.Query(context.Background(), `SELECT a FROM t`, insightnotes.WithTrace())
	if err != nil || len(res.Trace) == 0 {
		t.Fatalf("trace = %v, %v", res.Trace, err)
	}
	show := run(t, db, `SHOW TABLES`)
	if len(show.Rows) != 1 {
		t.Fatalf("SHOW TABLES = %v", show.Rows)
	}
}
