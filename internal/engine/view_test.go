package engine_test

// Copy-on-write envelopes: a scan hands out views of the stored envelopes.
// These tests hold the sharing to being invisible (the store never changes
// through a view), race-free under concurrent writers, and actually there
// (an un-projected read costs the same whatever the envelope's size).

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/difftest"
	"insightnotes/internal/engine"
	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
	"insightnotes/internal/zoomin"
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

// state is db's difftest.State: a copy of every stored envelope that
// shares nothing with the store.
func state(t *testing.T, db *engine.DB) []string {
	t.Helper()
	s, err := difftest.State(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
	env.RemapColumns(summary.NewColMap([]annotation.ColSet{annotation.Col(1)}))
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
	saved := state(t, db)
	cls, err := db.Catalog().Instance("ClassBird1")
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range viewStatements {
		first := viewExec(t, db, stmt, engine.WithBatchSize(7))
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
		if d := difftest.Diff(state(t, db), saved); d != "" {
			t.Fatalf("%s: the store changed through a result row: %s", stmt, d)
		}
		second := viewExec(t, db, stmt, engine.WithBatchSize(7))
		if len(second.Rows) != len(first.Rows) {
			t.Fatalf("%s: %d rows, then %d", stmt, len(first.Rows), len(second.Rows))
		}
		for i, row := range second.Rows {
			if (row.Env == nil) != (want[i] == nil) || row.Env != nil && !row.Env.Equal(want[i]) {
				t.Fatalf("%s: row %d differs on the second execution", stmt, i)
			}
		}
	}
}

// TestViewsLeaveStoredGroupsAlone is TestViewsNeverMutateTheStore without
// cloning the result rows, and so without the sharing a Clone adds to
// their cluster groups: the store's State must not change either way.
func TestViewsLeaveStoredGroupsAlone(t *testing.T) {
	db := viewWorld(t, 6, true)
	cls, err := db.Catalog().Instance("ClassBird1")
	if err != nil {
		t.Fatal(err)
	}
	want := state(t, db)
	for _, stmt := range viewStatements {
		var prev *summary.Envelope
		for _, row := range viewExec(t, db, stmt).Rows {
			if row.Env != nil {
				mutateEverything(row.Env, prev, cls)
				prev = row.Env
			}
		}
		if d := difftest.Diff(state(t, db), want); d != "" {
			t.Fatalf("%s: a stored envelope changed through a result row: %s", stmt, d)
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
					if env := db.EnvelopeFor("birds", types.RowID(id)); env != nil {
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
// per coverage map. GROUP BY id is the grouping that merges nothing. GROUP
// BY region and DISTINCT merge rows, and a merge adopts the cluster groups
// it takes over instead of copying them; they get ±10 %, since the
// accumulator's coverage map and member index still grow by rehash.
func TestScanSharesUnprojectedEnvelopes(t *testing.T) {
	small, large := viewWorld(t, 16, false), viewWorld(t, 64, false)
	for _, tc := range []struct {
		stmt string
		band float64
	}{
		{"SELECT * FROM birds", 0.02},
		{"SELECT wingspan, region, sci_name, name, id FROM birds WHERE id > 2", 0.02},
		{"SELECT id, COUNT(*) FROM birds GROUP BY id", 0.02},
		{"SELECT region, COUNT(*) FROM birds GROUP BY region", 0.10},
		{"SELECT DISTINCT region FROM birds", 0.10},
	} {
		// AllocsPerRun counts every goroutine's mallocs, and the others
		// can only add to the statement's own: the least of three runs is
		// the statement's.
		perRun := func(db *engine.DB) float64 {
			least := math.Inf(1)
			for range 3 {
				least = min(least, testing.AllocsPerRun(20, func() {
					// An ablated plan: executed and drained, not materialized
					// (materializing renders every element, which does scale).
					if _, err := db.Query(context.Background(), tc.stmt,
						engine.WithPlanOptions(plan.Options{})); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		if a, b := perRun(small), perRun(large); b > a*(1+tc.band) || b < a*(1-tc.band) {
			t.Errorf("%s: %.0f allocs at 16 annotations per row, %.0f at 64", tc.stmt, a, b)
		}
	}
}

// TestAbsorbedPredicateColumnsStayInTheScan: a predicate the scan absorbs
// reads the tuple before the scan projects it, so the scan projects only
// the columns needed above it, and the rows carry the summaries they carry
// with projection pushdown off: the wingspan-only annotations are curated
// away either way.
func TestAbsorbedPredicateColumnsStayInTheScan(t *testing.T) {
	db := viewWorld(t, 2, true)
	ctx := context.Background()
	const stmt = "SELECT id, region FROM birds WHERE wingspan >= 0"
	var lines []string
	projected := false
	for _, row := range viewExec(t, db, "EXPLAIN "+stmt).Rows {
		lines = append(lines, row.Tuple[0].Str())
		projected = projected || strings.HasSuffix(row.Tuple[0].Str(), "Filter (wingspan >= 0) Project+Curate [birds.id, birds.region]")
	}
	if !projected {
		t.Errorf("the scan does not project [id, region]:\n%s", strings.Join(lines, "\n"))
	}
	pushed, err := db.Query(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := db.Query(ctx, stmt, engine.WithPlanOptions(plan.Options{DisableProjectionPushdown: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pushed.Rows) != viewBirds || len(whole.Rows) != viewBirds {
		t.Fatalf("rows: %d pushed, %d unpushed, want %d", len(pushed.Rows), len(whole.Rows), viewBirds)
	}
	for i := range pushed.Rows {
		if p, w := pushed.Rows[i].Env, whole.Rows[i].Env; !p.Equal(w) {
			t.Errorf("row %d: pushed summaries\n%s\nunpushed\n%s", i, p.Render(), w.Render())
		}
	}
}

// TestCountStarKeepsEveryColumnInTheScan: COUNT(*) aggregates whole
// tuples, so every input column's annotations follow it, and the scan
// beneath it may curate none of them away. The summaries equal those with
// projection pushdown off, the wingspan-only annotations included.
func TestCountStarKeepsEveryColumnInTheScan(t *testing.T) {
	db := viewWorld(t, 2, true)
	ctx := context.Background()
	for _, stmt := range []string{
		"SELECT COUNT(*) FROM birds",
		"SELECT region, COUNT(*) FROM birds GROUP BY region",
	} {
		pushed, err := db.Query(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := db.Query(ctx, stmt, engine.WithPlanOptions(plan.Options{DisableProjectionPushdown: true}))
		if err != nil {
			t.Fatal(err)
		}
		if len(pushed.Rows) == 0 || len(pushed.Rows) != len(whole.Rows) {
			t.Fatalf("%s: %d rows pushed, %d unpushed", stmt, len(pushed.Rows), len(whole.Rows))
		}
		for i := range pushed.Rows {
			if p, w := pushed.Rows[i].Env, whole.Rows[i].Env; !p.Equal(w) {
				t.Errorf("%s: row %d: pushed summaries\n%s\nunpushed\n%s", stmt, i, p.Render(), w.Render())
			}
		}
	}
}

// TestPendingMapsUnderConcurrentZoomIns: live zoom-in cache entries whose
// rows carry pending column maps (a scan's projection that drops no
// annotation, and a Project above it) are read by concurrent ZOOMINs,
// re-rendered and compared while ADD ANNOTATION changes the stored
// envelopes the rows were viewed from. The cached rows read the same
// throughout, and the stored envelopes end equal to a second database's
// that took the same writes with no reader running. Run with -race.
func TestPendingMapsUnderConcurrentZoomIns(t *testing.T) {
	db, quiet := viewWorld(t, 6, false), viewWorld(t, 6, false)
	ctx := context.Background()
	render := func(rows []*exec.Row) string {
		w := codec.NewWriter(nil)
		zoomin.AppendRows(w, rows)
		return string(w.Bytes())
	}
	type entry struct {
		res    *engine.Result
		text   string
		clones []*summary.Envelope
	}
	var entries []entry
	for _, stmt := range []string{
		"SELECT id, region FROM birds WHERE wingspan >= 0.4",
		"SELECT name, id FROM birds",
		"SELECT b.id, b.name, s.sid FROM birds b, sightings s WHERE b.id = s.bird_id",
	} {
		res := viewExec(t, db, stmt)
		e := entry{res: res, text: render(res.Rows)}
		for _, row := range res.Rows {
			if row.Env != nil {
				e.clones = append(e.clones, row.Env.Clone())
			}
		}
		if len(e.clones) == 0 {
			t.Fatalf("%s: no row carries an envelope", stmt)
		}
		entries = append(entries, e)
	}
	// same reports whether e's rows read as they did when cached.
	same := func(e entry) bool {
		k := 0
		for _, row := range e.res.Rows {
			if row.Env != nil {
				if !row.Env.Equal(e.clones[k]) {
					return false
				}
				k++
			}
		}
		return render(e.res.Rows) == e.text
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
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
				e := entries[(r+i)%len(entries)]
				if _, hit, err := db.ZoomIn(ctx, engine.ZoomInRequest{QID: e.res.QID, Instance: "ClassBird1", Index: 1 + i%4}); err != nil || !hit {
					t.Errorf("zoom-in of QID %d: hit %v, %v", e.res.QID, hit, err)
					return
				}
				if !same(e) {
					t.Errorf("QID %d: a cached row changed under a concurrent write", e.res.QID)
					return
				}
			}
		}(r)
	}
	g := workload.New(7)
	for i := 0; i < 40; i++ {
		stmt := fmt.Sprintf("ADD ANNOTATION '%s' ON birds WHERE id = %d", g.ClassText(workload.BirdClasses[i%4]), i%viewBirds+1)
		viewExec(t, db, stmt)
		viewExec(t, quiet, stmt)
	}
	close(stop)
	readers.Wait()
	for _, e := range entries {
		if !same(e) {
			t.Errorf("QID %d: a cached row changed", e.res.QID)
		}
	}
	for _, row := range db.Annotations().AnnotatedRows("birds") {
		got, want := db.EnvelopeFor("birds", row), quiet.EnvelopeFor("birds", row)
		if !got.Equal(want) || got.Render() != want.Render() {
			t.Fatalf("stored envelope of birds/%d:\n%s\nwant\n%s", row, got.Render(), want.Render())
		}
	}
}
