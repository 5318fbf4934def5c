package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// populateForSnapshot builds a database with every persistable feature:
// tables (with an index and a deleted row, so ids have gaps), instances
// of all three types with a trained model, links, multi-target
// annotations, and documents.
func populateForSnapshot(t *testing.T) *DB {
	t.Helper()
	db := birdDB(t)
	mustExec(t, db, "CREATE INDEX ON birds (name)")
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'signs of avian influenza' ON birds (wingspan) WHERE id = 1")
	mustExec(t, db, `ADD ANNOTATION 'article' TITLE 'Field report'
		DOCUMENT 'Feeding was heavy. Counts were high. Weather was mild.' ON birds WHERE id = 2`)
	// Multi-tuple annotation and a row deletion (id gap).
	mustExec(t, db, "ADD ANNOTATION 'migration route shared note' ON birds")
	mustExec(t, db, "DELETE FROM birds WHERE id = 3")
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := populateForSnapshot(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// Data survives, including the id gap.
	q1 := mustExec(t, db, "SELECT id, name, wingspan FROM birds ORDER BY id")
	q2 := mustExec(t, back, "SELECT id, name, wingspan FROM birds ORDER BY id")
	if len(q1.Rows) != len(q2.Rows) {
		t.Fatalf("row counts: %d vs %d", len(q1.Rows), len(q2.Rows))
	}
	for i := range q1.Rows {
		if !q1.Rows[i].Tuple.EqualOn(q2.Rows[i].Tuple, nil) {
			t.Errorf("row %d: %v vs %v", i, q1.Rows[i].Tuple, q2.Rows[i].Tuple)
		}
	}

	// Summary objects rebuilt identically (same replay order).
	for _, row := range []int{1, 2} {
		a := db.StoredEnvelope("birds", annRow(row))
		b := back.StoredEnvelope("birds", annRow(row))
		if (a == nil) != (b == nil) {
			t.Fatalf("row %d envelope presence differs", row)
		}
		if a != nil && !a.Equal(b) {
			t.Errorf("row %d summaries differ:\n%s\nvs\n%s", row, a.Render(), b.Render())
		}
	}

	// Raw annotations and counts.
	if db.Annotations().Count() != back.Annotations().Count() {
		t.Errorf("annotation counts: %d vs %d", db.Annotations().Count(), back.Annotations().Count())
	}

	// Instances, links, and trained models survive: classification of new
	// text agrees.
	mustExec(t, back, "ADD ANNOTATION 'lesions suggest avian pox virus' ON birds WHERE id = 2")
	env := back.StoredEnvelope("birds", 2)
	if env == nil || !strings.Contains(env.Object("ClassBird1").Render(), "(Disease, 1)") {
		t.Errorf("restored classifier misbehaves: %v", env)
	}

	// Index survives.
	tbl, _ := back.Catalog().Table("birds")
	if tbl.Index("name") == nil {
		t.Error("index not restored")
	}

	// New ids continue past the persisted maximum.
	res := mustExec(t, back, "ADD ANNOTATION 'observed feeding again' ON birds WHERE id = 1")
	if !strings.Contains(res.Message, "annotation 6 ") {
		t.Errorf("next id wrong: %q", res.Message)
	}

	// Zoom-in works against the restored store.
	q := mustExec(t, back, "SELECT id, name FROM birds WHERE id = 1")
	zoom := mustExec(t, back, sqlZoom(q.QID, "", "ClassBird1", 1))
	if zoom.Count == 0 {
		t.Error("zoom-in on restored db returned nothing")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	db := populateForSnapshot(t)
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path, Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if back.Annotations().Count() != db.Annotations().Count() {
		t.Error("file round trip lost annotations")
	}
	// Overwrite is atomic and repeatable.
	if err := back.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"version": 99}`,
		`{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "kind": 200}]}]}`,
	} {
		if _, err := Load(strings.NewReader(bad), Config{CacheDir: t.TempDir()}); err == nil {
			t.Errorf("Load(%q) succeeded", bad)
		}
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Catalog().TableNames(); len(got) != 0 {
		t.Errorf("tables = %v", got)
	}
}

// Save walks annotations row by row; ids ascend with row ids only when
// rows were annotated in row order. A snapshot must list annotations by
// id regardless (load replays them in that order to rebuild summaries).
func TestSnapshotAnnotationsInIDOrder(t *testing.T) {
	db := birdDB(t)
	for _, id := range []int{3, 2, 1, 3, 1} {
		mustExec(t, db, fmt.Sprintf("ADD ANNOTATION 'observed feeding, note for bird %d' ON birds WHERE id = %d", id, id))
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Annotations) != 5 {
		t.Fatalf("snapshot holds %d annotations, want 5", len(snap.Annotations))
	}
	for i, a := range snap.Annotations {
		if int(a.ID) != i+1 {
			t.Fatalf("annotation %d in the snapshot has id %d: not in id order", i, a.ID)
		}
	}
	back, err := Load(&buf, Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for row := 1; row <= 3; row++ {
		a, b := db.StoredEnvelope("birds", annRow(row)), back.StoredEnvelope("birds", annRow(row))
		if a == nil || b == nil || !a.Equal(b) {
			t.Errorf("row %d summaries differ after reload: %v vs %v", row, a, b)
		}
	}
}
