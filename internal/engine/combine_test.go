package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"insightnotes/internal/engine"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

// TestCombineScalesWithInterleavedIDs: GROUP BY and SELECT DISTINCT
// combine a group's envelopes once, so the bytes a statement allocates
// grow with the group's rows, not with their square. The annotations go
// round-robin over the rows, so each row's ids interleave with every other
// row's and no merge can append at the tail of a growing result. A group
// of 4N rows may cost at most 5× a group of N; a merge of each row into a
// growing accumulator costs about 15×.
func TestCombineScalesWithInterleavedIDs(t *testing.T) {
	const n, perRow = 150, 4
	for _, q := range []string{
		"SELECT grp, COUNT(*) FROM obs GROUP BY grp",
		"SELECT DISTINCT grp FROM obs",
	} {
		small, large := combineBytes(t, interleavedWorld(t, n, perRow), q), combineBytes(t, interleavedWorld(t, 4*n, perRow), q)
		t.Logf("%s: %.0f B at %d rows, %.0f B at %d (%.2f×)", q, small, n, large, 4*n, large/small)
		if large > 5*small {
			t.Errorf("%s: %.0f B per statement at %d rows, %.0f B at %d rows (%.1f×, want ≤ 5×)", q, small, n, large, 4*n, large/small)
		}
	}
}

// interleavedWorld is one group of rows under the three demo instances,
// annotated round-robin: round r gives every row one annotation, a fifth
// of them with a document.
func interleavedWorld(t testing.TB, rows, perRow int) *engine.DB {
	t.Helper()
	db, g := groupWorld(t, rows)
	for r := 0; r < perRow; r++ {
		for i := 1; i <= rows; i++ {
			doc := ""
			if i%5 == r {
				doc = fmt.Sprintf(" TITLE 'report %d' DOCUMENT 'Sighting %d of round %d. The bird was seen near the lake.'", i, i, r)
			}
			viewExec(t, db, fmt.Sprintf("ADD ANNOTATION '%s'%s ON obs WHERE id = %d", g.ClassText(groupClasses[(i+r)%4]), doc, i))
		}
	}
	return db
}

var groupClasses = []string{"Behavior", "Disease", "Anatomy", "Other"}

// groupWorld is a table obs of rows in one group (grp = 1) under the three
// demo instances, not yet annotated.
func groupWorld(t testing.TB, rows int) (*engine.DB, *workload.Generator) {
	t.Helper()
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	viewExec(t, db, "CREATE TABLE birds (id INT)") // where the demo instances are linked first
	viewExec(t, db, "CREATE TABLE obs (id INT, grp INT)")
	for i := 1; i <= rows; i++ {
		viewExec(t, db, fmt.Sprintf("INSERT INTO obs VALUES (%d, 1)", i))
	}
	g := workload.New(30)
	if err := populate.InstallBirdInstances(db, g, 8); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"ClassBird1", "SimCluster", "TextSummary1"} {
		viewExec(t, db, "LINK SUMMARY "+in+" TO obs")
	}
	return db, g
}

// combineBytes returns the bytes one run of q allocates, averaged over
// three runs after a warm-up.
func combineBytes(t *testing.T, db *engine.DB, q string) float64 {
	t.Helper()
	const runs = 3
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, err := db.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCombinedEnvelopeIsSizedToItsSummary: when every row of a group
// carries the same annotations, the group's combined envelope is as small
// at 4N rows as at N. A combine sized for all the rows' entries at once
// would keep lists with room for every row's copy of them: the live heap a
// result holds would grow 4×. The test also logs the most the statement
// held live while it scanned, sampled once per batch.
func TestCombinedEnvelopeIsSizedToItsSummary(t *testing.T) {
	const n = 150
	for _, q := range []string{
		"SELECT grp, COUNT(*) FROM obs GROUP BY grp",
		"SELECT DISTINCT grp FROM obs",
	} {
		var held, peak [2]int64
		for i, rows := range []int{n, 4 * n} {
			db, g := groupWorld(t, rows)
			for _, class := range groupClasses {
				viewExec(t, db, fmt.Sprintf("ADD ANNOTATION '%s' ON obs WHERE grp = 1", g.ClassText(class)))
			}
			held[i], peak[i] = liveHeap(t, db, q)
		}
		t.Logf("%s: result holds %d B at %d rows, %d B at %d; at most %d B and %d B live while scanning", q, held[0], n, held[1], 4*n, peak[0], peak[1])
		if held[1] > 2*held[0]+8<<10 { // 8 KiB for the heap's own noise
			t.Errorf("%s: result holds %d B at %d rows, %d B at %d rows (want ≤ 2× + 8 KiB)", q, held[0], n, held[1], 4*n)
		}
	}
}

// liveHeap runs q twice and returns, for the second run, the live heap its
// result holds and the most the statement held live at a scan batch. Both
// are signed: collection can leave the heap smaller than at the
// statement's start.
func liveHeap(t *testing.T, db *engine.DB, q string) (held, peak int64) {
	t.Helper()
	for i := 0; i < 2; i++ {
		p := &heapProbe{Context: context.Background()}
		res, err := db.Query(p, q, engine.WithBatchSize(8))
		if err != nil {
			t.Fatal(err)
		}
		held, peak = int64(heapAlloc())-int64(p.first), int64(p.peak)-int64(p.first)
		runtime.KeepAlive(res)
	}
	return held, peak
}

// heapProbe is a statement context whose cancellation poll, made once at
// the statement's start and once per scan batch, records the live heap.
type heapProbe struct {
	context.Context
	first, peak uint64
	polled      bool
}

func (p *heapProbe) Err() error {
	live := heapAlloc()
	if !p.polled {
		p.first, p.polled = live, true
	}
	p.peak = max(p.peak, live)
	return nil
}

// heapAlloc collects garbage and returns the bytes of live heap objects.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
