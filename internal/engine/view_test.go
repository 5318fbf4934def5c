package engine_test

// Copy-on-write envelopes: a scan hands out views of the stored envelopes.
// These tests hold the sharing to being invisible (the store never changes
// through a view), race-free under concurrent writers, and actually there
// (an un-projected read costs the same whatever the envelope's size).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/engine"
	"insightnotes/internal/plan"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

const viewBirds = 24

// viewWorld builds viewBirds annotated birds (annsPerBird whole-row
// annotations each, plus, when columnAnnotations is set, one on wingspan
// only so that a narrowing projection curates) and 48 sightings joined to
// them, a third annotated, with the three demo instances linked to both
// tables.
func viewWorld(t testing.TB, annsPerBird int, columnAnnotations bool) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	g := workload.New(18)
	if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{
		Tuples: viewBirds, AnnotationsPerTuple: annsPerBird, DocumentFraction: 0.1, TrainPerClass: 8,
	}); err != nil {
		t.Fatal(err)
	}
	viewExec(t, db, "CREATE TABLE sightings (sid INT, bird_id INT, observers INT)")
	for i := 0; i < 48; i++ {
		viewExec(t, db, fmt.Sprintf("INSERT INTO sightings VALUES (%d, %d, %d)", i+1, i%viewBirds+1, i%3))
	}
	for _, in := range []string{"ClassBird1", "SimCluster", "TextSummary1"} {
		viewExec(t, db, "LINK SUMMARY "+in+" TO sightings")
	}
	for i := 1; i <= 48; i += 3 {
		viewExec(t, db, fmt.Sprintf("ADD ANNOTATION '%s' ON sightings WHERE sid = %d", g.ClassText("Behavior"), i))
	}
	for i := 1; i <= viewBirds && columnAnnotations; i++ {
		viewExec(t, db, fmt.Sprintf("ADD ANNOTATION '%s' ON birds (wingspan) WHERE id = %d", g.ClassText("Anatomy"), i))
	}
	return db
}

func viewExec(t testing.TB, db *engine.DB, stmt string, opts ...engine.StatementOption) *engine.Result {
	t.Helper()
	res, err := db.Exec(context.Background(), stmt, opts...)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// storedClones deep-copies every stored envelope of the two tables.
func storedClones(db *engine.DB) map[string]map[types.RowID]*summary.Envelope {
	out := map[string]map[types.RowID]*summary.Envelope{}
	for _, table := range []string{"birds", "sightings"} {
		out[table] = map[types.RowID]*summary.Envelope{}
		for _, row := range db.Annotations().AnnotatedRows(table) {
			out[table][row] = db.StoredEnvelope(table, row).Clone()
		}
	}
	return out
}

var viewStatements = []string{
	"SELECT b.id, b.name, s.sid FROM birds b, sightings s WHERE b.id = s.bird_id AND s.observers = 0",
	"SELECT s.sid, b.region FROM sightings s, birds b WHERE b.id = s.bird_id",
	"SELECT id, region FROM birds WHERE wingspan >= 0.4", // drops the wingspan-only annotations
	"SELECT region, COUNT(*) FROM birds GROUP BY region",
	"SELECT DISTINCT region FROM birds",
	"SELECT * FROM birds WHERE SUMMARY_TOTAL(ClassBird1) >= 1",
	"SELECT * FROM birds",
}

// mutateEverything runs every public mutator on env, destructively.
func mutateEverything(env *summary.Envelope, other *summary.Envelope, cls *summary.Instance) {
	env.Add(cls, summary.Digest{Ann: 1 << 40, LabelIndex: 1}, annotation.Col(0))
	if other != nil {
		env.Merge(other, 2)
		env.Combine(other)
	}
	env.Project([]int{0})
	env.RemapColumns([]annotation.ColSet{annotation.Col(1)})
	for _, id := range env.Annotations() {
		env.RemoveAnnotation(id)
		break
	}
	env.RemoveInstance("SimCluster")
	env.PruneCover()
	for _, id := range env.Annotations() {
		env.RemoveAnnotation(id)
	}
}

func TestViewsNeverMutateTheStore(t *testing.T) {
	db := viewWorld(t, 6, true)
	saved := storedClones(db)
	cls, err := db.Catalog().Instance("ClassBird1")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, stmt := range viewStatements {
			opts := []engine.StatementOption{engine.WithParallelism(workers), engine.WithBatchSize(7)}
			first := viewExec(t, db, stmt, opts...)
			want := make([]*summary.Envelope, len(first.Rows))
			for i, row := range first.Rows {
				if row.Env != nil {
					want[i] = row.Env.Clone()
				}
			}
			var prev *summary.Envelope
			for _, row := range first.Rows {
				if row.Env != nil {
					mutateEverything(row.Env, prev, cls)
					prev = row.Env
				}
			}
			for table, rows := range saved {
				for row, env := range rows {
					if got := db.StoredEnvelope(table, row); !got.Equal(env) {
						t.Fatalf("workers=%d %s: stored envelope of %s/%d changed through a result row:\n%s\nwant\n%s",
							workers, stmt, table, row, got.Render(), env.Render())
					}
				}
			}
			second := viewExec(t, db, stmt, opts...)
			if len(second.Rows) != len(first.Rows) {
				t.Fatalf("workers=%d %s: %d rows, then %d", workers, stmt, len(first.Rows), len(second.Rows))
			}
			for i, row := range second.Rows {
				if (row.Env == nil) != (want[i] == nil) || row.Env != nil && !row.Env.Equal(want[i]) {
					t.Fatalf("workers=%d %s: row %d differs on the second execution", workers, stmt, i)
				}
			}
		}
	}
}

// TestReadersSeeWholeEnvelopesUnderWrites: scanners hold views while
// annotations are added and dropped, rows deleted, an instance unlinked and
// relinked, and the degraded-mode catch-up worker applies deferred updates
// to the same rows. A held view must stay what it was when handed out.
// Run with -race.
func TestReadersSeeWholeEnvelopesUnderWrites(t *testing.T) {
	db := viewWorld(t, 4, true)
	db.SetDegraded(true) // summary updates go through the catch-up worker
	ctx := context.Background()
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(ctx, viewStatements[(r+i)%len(viewStatements)])
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				held := make([]*summary.Envelope, 0, len(res.Rows))
				for _, row := range res.Rows {
					if row.Env != nil {
						held = append(held, row.Env.Clone())
					}
				}
				// Let writers at the rows the views came from, then compare.
				for _, id := range []int{1, 2, 3} {
					if env := db.StoredEnvelope("birds", types.RowID(id)); env != nil {
						env.Render()
					}
				}
				k := 0
				for _, row := range res.Rows {
					if row.Env == nil {
						continue
					}
					if !row.Env.Equal(held[k]) {
						t.Errorf("reader: a held view changed under a concurrent write")
						return
					}
					k++
				}
			}
		}(r)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		g := workload.New(5)
		for i := 0; i < 60; i++ {
			stmts := []string{fmt.Sprintf("ADD ANNOTATION '%s' ON birds WHERE id = %d", g.ClassText("Disease"), i%viewBirds+1)}
			switch i % 6 {
			case 1:
				stmts = append(stmts, fmt.Sprintf("DROP ANNOTATION %d", i)) // one of populate's: ids start at 1
			case 3:
				stmts = append(stmts, fmt.Sprintf("DELETE FROM sightings WHERE sid = %d", 48-i/6))
			case 5:
				stmts = append(stmts, "UNLINK SUMMARY TextSummary1 FROM birds", "LINK SUMMARY TextSummary1 TO birds")
			}
			for _, stmt := range stmts {
				if _, err := db.Exec(ctx, stmt); err != nil {
					t.Errorf("%s: %v", stmt, err)
					return
				}
			}
		}
	}()
	writers.Wait()
	db.WaitMaintenanceIdle()
	close(stop)
	readers.Wait()
}

// TestScanSharesUnprojectedEnvelopes: draining a plan that drops no
// annotation allocates the same (±2 %) at 16 and at 64 annotations per row
// — envelopes are handed out and their coverage rebased, objects are never
// copied. Allocation counts, no wall clock. Both sizes are past the Go
// runtime's 8-entry small-map form, which alone is worth two allocations
// per coverage map. GROUP BY id is the grouping that merges nothing;
// GROUP BY region is not flat and not listed: a merge copies the cluster
// groups it takes over from the other side.
func TestScanSharesUnprojectedEnvelopes(t *testing.T) {
	small, large := viewWorld(t, 16, false), viewWorld(t, 64, false)
	for _, stmt := range []string{
		"SELECT * FROM birds",
		"SELECT wingspan, region, sci_name, name, id FROM birds WHERE id > 2",
		"SELECT id, COUNT(*) FROM birds GROUP BY id",
	} {
		perRun := func(db *engine.DB) float64 {
			return testing.AllocsPerRun(20, func() {
				// An ablated plan: executed and drained, not materialized
				// (materializing renders every element, which does scale).
				if _, err := db.Query(context.Background(), stmt,
					engine.WithPlanOptions(plan.Options{}), engine.WithParallelism(1)); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := perRun(small), perRun(large); b > a*1.02 || b < a*0.98 {
			t.Errorf("%s: %.0f allocs at 16 annotations per row, %.0f at 64", stmt, a, b)
		}
	}
}
