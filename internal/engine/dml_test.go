package engine

import (
	"context"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

func TestUpdateStatement(t *testing.T) {
	db := birdDB(t)
	res := mustExec(t, db, "UPDATE birds SET wingspan = wingspan + 0.5, name = 'Giant Goose' WHERE id = 1")
	if res.Count != 1 {
		t.Fatalf("updated %d", res.Count)
	}
	q := mustExec(t, db, "SELECT name, wingspan FROM birds WHERE id = 1")
	if q.Rows[0].Tuple[0].Str() != "Giant Goose" || q.Rows[0].Tuple[1].Float() != 2.3 {
		t.Fatalf("row = %v", q.Rows[0].Tuple)
	}
	// Annotations survive updates: they annotate tuple identity.
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 2")
	mustExec(t, db, "UPDATE birds SET wingspan = 9.9 WHERE id = 2")
	env := db.EnvelopeFor("birds", 2)
	if env == nil || env.Object("ClassBird1") == nil {
		t.Error("annotation lost across UPDATE")
	}
	// Update of zero rows succeeds with count 0.
	res = mustExec(t, db, "UPDATE birds SET wingspan = 0 WHERE id = 99")
	if res.Count != 0 {
		t.Errorf("count = %d", res.Count)
	}
	// Validation errors.
	for _, bad := range []string{
		"UPDATE birds SET nope = 1",
		"UPDATE missing SET id = 1",
		"UPDATE birds SET id = 'text'",
	} {
		if _, err := db.Exec(context.Background(), bad); err == nil {
			t.Errorf("Exec(%q) succeeded", bad)
		}
	}
}

func TestDeleteStatementCascadesAnnotations(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'only on bird 1' ON birds WHERE id = 1")
	// Shared annotation across birds 1 and 2.
	sharedID, _, err := db.AnnotateTargets(annotation.Annotation{Text: "migration note shared"},
		[]TargetSpec{{Table: "birds", Where: parseWhere(t, "id < 3")}})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Annotations().Count()

	res := mustExec(t, db, "DELETE FROM birds WHERE id = 1")
	if res.Count != 1 {
		t.Fatalf("deleted %d", res.Count)
	}
	if !strings.Contains(res.Message, "1 orphaned annotation") {
		t.Errorf("message = %q", res.Message)
	}
	// The tuple is gone.
	q := mustExec(t, db, "SELECT id FROM birds")
	if len(q.Rows) != 2 {
		t.Fatalf("rows = %d", len(q.Rows))
	}
	// The exclusive annotation was orphaned and removed; the shared one
	// survives on bird 2.
	if db.Annotations().Count() != before-1 {
		t.Errorf("annotations = %d, want %d", db.Annotations().Count(), before-1)
	}
	if _, err := db.Annotations().Get(sharedID); err != nil {
		t.Errorf("shared annotation removed: %v", err)
	}
	if got := db.Annotations().TargetsOf(sharedID); len(got) != 1 || got[0].Table != "birds" || got[0].Row != 2 {
		t.Errorf("shared annotation targets = %v", got)
	}
	// Envelope of the deleted tuple is gone.
	if db.EnvelopeFor("birds", 1) != nil {
		t.Error("envelope survived DELETE")
	}
}

// DROP TABLE detaches its rows' annotations by DELETE's rule: one attached
// nowhere else is removed, a shared one keeps its other targets. None may
// resurface on a new table of the same name, in memory, on a caught-up
// replica, or in a checkpoint that must load again. The envelopes go with
// their rows: row 1 of the new table has none, and neither has a DELETEd
// row.
func TestDropTableDetachesAnnotations(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "CREATE TABLE u (a INT)")
	mustExec(t, db, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')")
	mustExec(t, db, "LINK SUMMARY C TO t")
	mustExec(t, db, "LINK SUMMARY C TO u")
	mustExec(t, db, "INSERT INTO t VALUES (4), (3)")
	mustExec(t, db, "INSERT INTO u VALUES (7), (8)")
	mustExec(t, db, "ADD ANNOTATION 'old' ON t WHERE a = 3")
	mustExec(t, db, "ADD ANNOTATION 'deleted with its row' ON u WHERE a = 8")
	shared, _, err := db.AnnotateTargets(annotation.Annotation{Text: "shared"},
		[]TargetSpec{{Table: "t", Where: parseWhere(t, "a = 4")}, {Table: "u", Where: parseWhere(t, "a = 7")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "u"} {
		for row := types.RowID(1); row <= 2; row++ {
			if db.EnvelopeFor(table, row) == nil {
				t.Fatalf("setup: row %d of %s has no envelope", row, table)
			}
		}
	}
	mustExec(t, db, "DELETE FROM u WHERE a = 8")
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (9)")
	check := func(who string, db *DB) {
		t.Helper()
		if rows := mustExec(t, db, "SHOW ANNOTATIONS ON t").Rows; len(rows) != 0 {
			t.Errorf("%s: the new table t carries %d annotation(s) of the dropped one", who, len(rows))
		}
		if n := db.Annotations().Count(); n != 1 {
			t.Errorf("%s: %d annotation(s) stored, want the shared one", who, n)
		}
		if got := db.Annotations().TargetsOf(shared); len(got) != 1 || got[0].Table != "u" {
			t.Errorf("%s: shared annotation targets = %v, want its row of u", who, got)
		}
		if env := db.EnvelopeFor("t", 1); env != nil {
			t.Errorf("%s: row 1 of the new table t has an envelope:\n%s", who, env.Render())
		}
		if env := db.EnvelopeFor("u", 2); env != nil {
			t.Errorf("%s: the DELETEd row 2 of u has an envelope:\n%s", who, env.Render())
		}
		if db.EnvelopeFor("u", 1) == nil {
			t.Errorf("%s: row 1 of u lost the shared annotation's envelope", who)
		}
		if n := envelopeCount(db); n != 1 {
			t.Errorf("%s: %d envelope(s) stored, want row 1 of u's only", who, n)
		}
	}
	check("primary", db)
	check("replica", replicaOf(t, dir))
	mustExec(t, db, "CHECKPOINT")
	db.Close()
	back, _ := openDurable(t, dir)
	check("reopened", back)
}

// A log written when DROP TABLE still left its annotations in place may
// drop one of them by id afterwards. Redo has already removed it with the
// table, so that drop is a no-op: recovery and a replica both accept the
// log and end without the annotation.
func TestRedoDropOfAnnotationDetachedByDropTable(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (4), (3)")
	id, _, err := db.AnnotateTargets(annotation.Annotation{Text: "old"},
		[]TargetSpec{{Table: "t", Where: parseWhere(t, "a = 3")}})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "DROP TABLE t")
	// The drop the older engine logged, staged as it wrote it.
	_, tok, err := db.wal.Stage(walTypeDropAnnotation, encodeWALBody(&walDropAnnotation{ID: id}))
	if err == nil {
		err = db.wal.Sync(tok)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := replicaOf(t, dir).Annotations().Count(); n != 0 {
		t.Errorf("replica: %d annotation(s) stored, want 0", n)
	}
	db.wal.Kill()
	back, _ := openDurable(t, dir)
	if n := back.Annotations().Count(); n != 0 {
		t.Errorf("recovered: %d annotation(s) stored, want 0", n)
	}
	if err := back.DropAnnotation(id); err == nil {
		t.Error("a statement dropped an annotation that no longer exists")
	}
}

func TestDropAnnotationCuratesSummaries(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1")
	res := mustExec(t, db, "ADD ANNOTATION 'signs of avian influenza' ON birds WHERE id = 1")
	_ = res
	env := db.EnvelopeFor("birds", 1)
	if env.Object("ClassBird1").Len() != 2 {
		t.Fatalf("setup: %d members", env.Object("ClassBird1").Len())
	}
	// Retract the first annotation (id 1).
	mustExec(t, db, "DROP ANNOTATION 1")
	env = db.EnvelopeFor("birds", 1)
	if env.Object("ClassBird1").Len() != 1 {
		t.Fatalf("after retraction: %d members", env.Object("ClassBird1").Len())
	}
	if !strings.Contains(env.Object("ClassBird1").Render(), "(Disease, 1)") {
		t.Errorf("render = %q", env.Object("ClassBird1").Render())
	}
	if _, err := db.Annotations().Get(1); err == nil {
		t.Error("raw annotation still present")
	}
	// Retracting again fails.
	if _, err := db.Exec(context.Background(), "DROP ANNOTATION 1"); err == nil {
		t.Error("double retraction succeeded")
	}
	// Retracting the last annotation empties the envelope entirely.
	mustExec(t, db, "DROP ANNOTATION 2")
	if db.EnvelopeFor("birds", 1) != nil {
		t.Error("empty envelope kept")
	}
}

func TestDropAnnotationMultiTuple(t *testing.T) {
	db := birdDB(t)
	id, n, err := db.AnnotateTargets(annotation.Annotation{Text: "observed feeding at dawn"},
		[]TargetSpec{{Table: "birds"}})
	if err != nil || n != 3 {
		t.Fatal(err)
	}
	if err := db.DropAnnotation(id); err != nil {
		t.Fatal(err)
	}
	for row := 1; row <= 3; row++ {
		if env := db.EnvelopeFor("birds", annRow(row)); env != nil {
			t.Errorf("row %d envelope survived retraction", row)
		}
	}
}

func TestZoomInSkipsRetractedAnnotations(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'found eating stonewort' ON birds WHERE id = 1")
	res := mustExec(t, db, "SELECT id, name FROM birds WHERE id = 1")
	// Retract one of the two Behavior annotations AFTER the query was
	// cached; zoom-in returns only the survivor.
	mustExec(t, db, "DROP ANNOTATION 1")
	zoom := mustExec(t, db, sqlZoom(res.QID, "", "ClassBird1", 1))
	if zoom.Count != 1 {
		t.Fatalf("zoom = %d annotations, want the survivor only", zoom.Count)
	}
}

func parseWhere(t *testing.T, cond string) sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sql.Select).Where
}

func annRow(n int) types.RowID { return types.RowID(n) }
