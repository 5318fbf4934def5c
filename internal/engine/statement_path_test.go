// Tests of the one statement path: a failed multi-row INSERT leaves nothing
// behind, one annotation is a batch of one, and logs written with the
// retired record types still recover.

package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A multi-row INSERT whose second row is malformed must leave no row
// visible — in memory, where it was never logged, or after a restart.
func TestInsertAtomicAgainstWAL(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE b (id INT, name TEXT)")
	for _, stmt := range []string{
		"INSERT INTO b VALUES (1, 'a'), ('oops', 'b')",
		"BULK INSERT INTO b VALUES (1, 'a'), ('oops', 'b')",
	} {
		if _, err := db.Exec(context.Background(), stmt); err == nil {
			t.Fatalf("%s succeeded", stmt)
		}
		if rows := mustExec(t, db, "SELECT id FROM b").Rows; len(rows) != 0 {
			t.Fatalf("%s failed but left %d row(s) visible", stmt, len(rows))
		}
	}
	db.Close()
	back, _ := openDurable(t, dir)
	if rows := mustExec(t, back, "SELECT id FROM b").Rows; len(rows) != 0 {
		t.Fatalf("%d row(s) after restart, none before it", len(rows))
	}
}

// annotationStream is a fixed stream with whole-row and column-scoped
// attachments, repeating texts.
func annotationStream() []AnnotationRequest {
	var reqs []AnnotationRequest
	for i := 0; i < 12; i++ {
		req := AnnotationRequest{
			Text:   fmt.Sprintf("observed feeding in flocks near the shore, visit %d", i%5),
			Author: fmt.Sprintf("curator%d", i%3),
			Table:  "birds",
		}
		if i%3 == 1 {
			req.Columns = []string{"name"}
		}
		if i%4 == 2 {
			req.Text = "lesions on the left wing suggest avian pox"
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// The same annotation stream ingested one Annotate at a time and as one
// AnnotateBatch — fresh, and degraded then drained — maintains identical
// summary objects, before and after a kill and reopen.
func TestSingleVsBatchEquivalence(t *testing.T) {
	reqs := annotationStream()
	ingest := map[string]func(*testing.T, *DB){
		"single": func(t *testing.T, db *DB) {
			for _, req := range reqs {
				if _, _, err := db.Annotate(req); err != nil {
					t.Fatal(err)
				}
			}
		},
		"batch": func(t *testing.T, db *DB) {
			if ids, n, err := db.AnnotateBatch(reqs); err != nil || len(ids) != len(reqs) || n != 3*len(reqs) {
				t.Fatalf("AnnotateBatch = %d ids, %d attachments, %v", len(ids), n, err)
			}
		},
	}
	// The reference: synchronous maintenance, one annotation at a time, no
	// WAL.
	reference := testDB(t)
	defer reference.Close()
	maintScaffold(t, reference)
	ingest["single"](t, reference)
	for _, degraded := range []bool{false, true} {
		for _, how := range []string{"single", "batch"} {
			t.Run(fmt.Sprintf("%s/degraded=%v", how, degraded), func(t *testing.T) {
				dir := t.TempDir()
				db, _ := openDurable(t, dir)
				maintScaffold(t, db)
				db.SetDegraded(degraded)
				ingest[how](t, db)
				if degraded {
					if st := db.MaintenanceStats(); st.Deferred != int64(len(reqs)) {
						t.Fatalf("deferred %d task(s), want %d", st.Deferred, len(reqs))
					}
					db.SetDegraded(false)
					db.WaitMaintenanceIdle()
				}
				compareEnvelopes(t, db, reference)
				// Kill: no Close, no checkpoint — recovery has only the WAL.
				db.wal.Kill()
				back, _ := openDurable(t, dir)
				compareEnvelopes(t, back, reference)
				if got, want := back.Annotations().Count(), reference.Annotations().Count(); got != want {
					t.Fatalf("recovered %d annotation(s), want %d", got, want)
				}
			})
		}
	}
}

// A WAL written by the commit before row ingest and annotation ingest were
// folded (testdata/parent_wal/wal.log, written by that commit's engine)
// carries all four of insert, bulk_insert, annotate and annotate_batch; it
// must recover to the state the same statements produce today.
func TestParentWALStillOpens(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_wal", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"insert", "bulk_insert", "annotate", "annotate_batch"} {
		if !bytes.Contains(raw, []byte(`"type":"`+typ+`"`)) {
			t.Fatalf("fixture holds no %s record", typ)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info := openDurable(t, dir)
	if info.TornTruncated || info.Replayed != 9 {
		t.Fatalf("recovery = %+v, want 9 intact records", info)
	}

	want := testDB(t)
	defer want.Close()
	maintScaffold(t, want) // birds rows 1-3, instances C and S, both linked
	mustExec(t, want, "INSERT INTO birds VALUES (4, 'Whooper Swan')")
	mustExec(t, want, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")
	if _, _, err := want.AnnotateBatch([]AnnotationRequest{
		{Text: "flock sighting at dawn over the reed beds", Table: "birds"},
		{Text: "aggressive display toward intruders near the nest", Table: "birds", Columns: []string{"name"}},
	}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, name FROM birds ORDER BY id"
	if g, w := fmt.Sprint(rowTuples(mustExec(t, got, q))), fmt.Sprint(rowTuples(mustExec(t, want, q))); g != w {
		t.Fatalf("recovered rows %s, want %s", g, w)
	}
	compareEnvelopes(t, got, want)
	if g, w := got.Annotations().Count(), want.Annotations().Count(); g != w {
		t.Fatalf("recovered %d annotation(s), want %d", g, w)
	}
}

func rowTuples(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r.Tuple)
	}
	return out
}
