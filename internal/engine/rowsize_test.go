package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"insightnotes/internal/storage"
	"insightnotes/internal/wal"
)

// TestLargeRowsRoundTrip writes a TEXT value larger than a heap page
// through INSERT, BULK INSERT and UPDATE. Rows are not stored on pages, so
// each statement succeeds whole, and the rows survive CHECKPOINT plus
// reopen and reach a replica fed the primary's WAL.
func TestLargeRowsRoundTrip(t *testing.T) {
	big := func(c string) string { return strings.Repeat(c, 9000) }
	want := map[int64]string{1: big("a"), 2: big("c"), 3: big("b"), 4: "small bulk"}
	check := func(how string, db *DB) {
		t.Helper()
		res, err := db.Query(context.Background(), "SELECT id, body FROM big")
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", how, len(res.Rows), len(want))
		}
		for _, r := range res.Rows {
			if id := r.Tuple[0].Int(); r.Tuple[1].Str() != want[id] {
				t.Fatalf("%s: row %d holds %d bytes, want %d", how, id, len(r.Tuple[1].Str()), len(want[id]))
			}
		}
	}

	dir := t.TempDir()
	opts := DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1}
	db, _, err := OpenDurable(durableConfig(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	for _, stmt := range []string{
		"CREATE TABLE big (id INT, body TEXT)",
		fmt.Sprintf("INSERT INTO big VALUES (1, '%s'), (2, 'small')", big("a")),
		fmt.Sprintf("BULK INSERT INTO big VALUES (3, '%s'), (4, 'small bulk')", big("b")),
		fmt.Sprintf("UPDATE big SET body = '%s' WHERE id = 2", big("c")),
	} {
		if _, err := db.Exec(context.Background(), stmt); err != nil {
			t.Fatalf("%.40s…: %v", stmt, err)
		}
	}
	check("primary", db)

	replica, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: t.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	var recs []wal.Record
	if _, err := wal.Replay(filepath.Join(dir, walFileName), 0, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := replica.ReplicationPosition(), db.ReplicationPosition(); got != want {
		t.Fatalf("replica at lsn %d, primary at %d", got, want)
	}
	check("replica", replica)

	mustExec(t, db, "CHECKPOINT")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, _, err = OpenDurable(durableConfig(t), opts); err != nil {
		t.Fatal(err)
	}
	check("reopened primary", db)
}

// TestAnnotateBatchAllOrNone sends a batch whose second annotation is too
// large for a page: the batch fails before anything is stored, so no
// annotation, row reference, envelope or id is left behind, live or after
// reopen.
func TestAnnotateBatchAllOrNone(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1}
	db, _, err := OpenDurable(durableConfig(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if _, err := db.ExecScript(context.Background(), `
		CREATE TABLE birds (id INT, name TEXT);
		INSERT INTO birds VALUES (1, 'Swan Goose');
		CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('x', 'y');
		TRAIN SUMMARY C ('alpha text', 'x'), ('beta text', 'y');
		LINK SUMMARY C TO birds;
	`); err != nil {
		t.Fatal(err)
	}
	_, _, err = db.AnnotateBatch([]AnnotationRequest{
		{Text: "alpha small", Table: "birds"},
		{Text: "alpha document", Document: strings.Repeat("d", 15_000), Table: "birds"},
	})
	if !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("AnnotateBatch with an oversized document = %v, want ErrRecordTooLarge", err)
	}
	untouched := func(how string) {
		t.Helper()
		anns := db.Annotations()
		if n := anns.Count(); n != 0 {
			t.Errorf("%s: store holds %d annotation(s), want 0", how, n)
		}
		if refs := anns.ForTuple("birds", 1); len(refs) != 0 {
			t.Errorf("%s: row 1 carries refs %v, want none", how, refs)
		}
		if env := db.EnvelopeFor("birds", 1); env != nil {
			t.Errorf("%s: row 1 has an envelope:\n%s", how, env.Render())
		}
		if next := anns.NextID(); next != 1 {
			t.Errorf("%s: next annotation id %d, want 1", how, next)
		}
	}
	untouched("live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, _, err = OpenDurable(durableConfig(t), opts); err != nil {
		t.Fatal(err)
	}
	untouched("reopened")
	ids, _, err := db.AnnotateBatch([]AnnotationRequest{{Text: "alpha small", Table: "birds"}})
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("next batch = %v, %v; want id 1", ids, err)
	}
}
