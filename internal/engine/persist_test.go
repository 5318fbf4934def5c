package engine

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"insightnotes/internal/difftest"
	"insightnotes/internal/types"
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

	// Rows (with the id gap), indexes, instances, links, annotations and
	// summary objects survive.
	difftest.SameState(t, back, db)

	// Instances, links, and trained models survive: classification of new
	// text agrees.
	mustExec(t, back, "ADD ANNOTATION 'lesions suggest avian pox virus' ON birds WHERE id = 2")
	env := back.EnvelopeFor("birds", 2)
	if env == nil || !strings.Contains(env.Object("ClassBird1").Render(), "(Disease, 1)") {
		t.Errorf("restored classifier misbehaves: %v", env)
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
	difftest.SameState(t, back, db)
	// Overwrite is atomic and repeatable.
	if err := back.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	for _, bad := range []string{
		"not a checkpoint",
		`{"version": 99}`,
		string(checkpointOf(t, testRecord{walTypeCreateTable, &walCreateTable{Name: "t", Columns: []types.Column{{Name: "a", Kind: 200}}}})),
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
// rows were annotated in row order. A checkpoint must list annotations by
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
	recs, _ := checkpointRecords(t, buf.Bytes())
	var anns []walAnnotation
	for _, r := range recs {
		if a, ok := r.p.(*walAnnotate); ok {
			anns = append(anns, a.Anns...)
		}
	}
	if len(anns) != 5 {
		t.Fatalf("checkpoint holds %d annotations, want 5", len(anns))
	}
	for i, a := range anns {
		if int(a.ID) != i+1 {
			t.Fatalf("annotation %d in the checkpoint has id %d: not in id order", i, a.ID)
		}
	}
	back, err := Load(&buf, Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for row := 1; row <= 3; row++ {
		a, b := db.EnvelopeFor("birds", annRow(row)), back.EnvelopeFor("birds", annRow(row))
		if a == nil || b == nil || !a.Equal(b) {
			t.Errorf("row %d summaries differ after reload: %v vs %v", row, a, b)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load: each must produce an error or a
// database, never a panic. Seeded from a real checkpoint, whose summary
// records hold objects of all three types, and a hand-built one.
func FuzzLoad(f *testing.F) {
	db, err := Open(Config{CacheDir: f.TempDir(), DisableMetrics: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')",
		"CREATE INDEX ON birds (id)",
		"CREATE SUMMARY INSTANCE Cls TYPE Classifier LABELS ('Behavior', 'Disease')",
		"CREATE SUMMARY INSTANCE Clu TYPE Cluster",
		"CREATE SUMMARY INSTANCE Snp TYPE Snippet",
		"LINK SUMMARY Cls TO birds", "LINK SUMMARY Clu TO birds", "LINK SUMMARY Snp TO birds",
		"ADD ANNOTATION 'seen feeding near the lake' ON birds WHERE id = 1",
		"ADD ANNOTATION 'feeding near the lake at dawn' ON birds",
		"ADD ANNOTATION 'report' TITLE 'Field notes' DOCUMENT 'Feeding was heavy. Counts were high.' ON birds (name) WHERE id = 2",
	} {
		if _, err := db.Exec(context.Background(), stmt); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	db.Close()
	f.Add(buf.Bytes())
	f.Add([]byte(withSummaries(f, summaryT("t", envelopeBody("c", 1), 1))))
	cacheDir := f.TempDir() // each engine takes a directory of its own inside
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data), Config{CacheDir: cacheDir, DisableMetrics: true, DisableTracing: true})
		if err == nil {
			db.Close()
		}
	})
}
