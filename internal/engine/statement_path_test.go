// Tests of the one statement path: a failed write leaves nothing behind,
// and one annotation is a batch of one.

package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"insightnotes/internal/difftest"
	"insightnotes/internal/wal"
)

// replicaOf opens a fresh durable engine and applies every record of the
// log in dir to it, as a replica caught up on that primary would.
func replicaOf(t *testing.T, dir string) *DB {
	t.Helper()
	replica, _ := openDurable(t, t.TempDir())
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
	return replica
}

// A write that fails partway — a multi-row INSERT whose second row is
// malformed, an UPDATE whose SET yields a bad value for its second row, a
// TRAIN whose second sample names an unknown label — changes nothing:
// memory, where it was never logged, a reopen and a replica caught up on
// the log all hold the state and annotation clock as they were.
func TestFailedWriteAtomicAgainstWAL(t *testing.T) {
	for _, stmt := range []string{
		"INSERT INTO b VALUES (1, 'a'), ('oops', 'b')",
		"BULK INSERT INTO b VALUES (1, 'a'), ('oops', 'b')",
		"UPDATE b SET id = id / 2",
		"TRAIN SUMMARY Cls ('lesions from avian pox', 'Disease'), ('seen twice', 'Nope')",
	} {
		dir := t.TempDir()
		db, _ := openDurable(t, dir)
		for _, setup := range []string{
			"CREATE TABLE b (id INT, name TEXT)",
			"INSERT INTO b VALUES (4, 'x'), (3, 'y')",
			"CREATE SUMMARY INSTANCE Cls TYPE Classifier LABELS ('Behavior', 'Disease')",
			"LINK SUMMARY Cls TO b",
			"TRAIN SUMMARY Cls ('feeding at dawn', 'Behavior')",
			"ADD ANNOTATION 'lesions from avian pox' ON b WHERE id = 3",
		} {
			mustExec(t, db, setup)
		}
		want, err := difftest.State(db)
		if err != nil {
			t.Fatal(err)
		}
		clock := db.annClock.Load()
		if _, err := db.Exec(context.Background(), stmt); err == nil {
			t.Fatalf("%s succeeded", stmt)
		}
		check := func(who string, db *DB) {
			t.Helper()
			got, err := difftest.State(db)
			if d := difftest.Diff(got, want); err != nil || d != "" || db.annClock.Load() != clock {
				t.Errorf("%s failed, but %s holds other state (annotation clock %d, want %d): %v%s",
					stmt, who, db.annClock.Load(), clock, err, d)
			}
		}
		check("memory", db)
		check("a caught-up replica", replicaOf(t, dir))
		db.Close()
		back, _ := openDurable(t, dir)
		check("the reopened engine", back)
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
				difftest.SameState(t, db, reference)
				// Kill: no Close, no checkpoint — recovery has only the WAL.
				db.wal.Kill()
				back, _ := openDurable(t, dir)
				difftest.SameState(t, back, reference)
			})
		}
	}
}
