// Tests of the one statement path: a failed multi-row INSERT leaves nothing
// behind, and one annotation is a batch of one.

package engine

import (
	"context"
	"fmt"
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
