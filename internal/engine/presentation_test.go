package engine_test

// A stored summary object memoises its rendering and its elements once a
// reader has latched it shared (summary.presentation). These tests hold the
// memo to never outliving a write, and to being there: a point SELECT
// whose objects are memoised is answered in the same allocations whatever
// the row's annotation count.

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/engine"
	"insightnotes/internal/zoomin"
)

// shownRow is what one point SELECT shows of its row: the rendered summary
// per instance as the response carries it, and the annotation ids behind
// every element as ZOOMIN resolves them.
type shownRow struct {
	rendered map[string]string
	zoomed   map[string][]annotation.ID
}

var zoomedInstances = []string{"ClassBird1", "SimCluster"}

// showRow runs a point SELECT of bird id and zooms into every element of
// zoomedInstances. It checks the result against itself, reporting with
// t.Errorf (it runs on reader goroutines too): each rendered summary is the
// result object's Render, and the zoomed ids are the object's members.
func showRow(t testing.TB, db *engine.DB, id int) (shownRow, error) {
	t.Helper()
	ctx := context.Background()
	res, err := db.Query(ctx, fmt.Sprintf("SELECT id, name FROM birds WHERE id = %d", id))
	if err != nil {
		return shownRow{}, err
	}
	if len(res.Rows) != 1 || res.Rows[0].Env == nil {
		return shownRow{}, fmt.Errorf("bird %d: %d rows", id, len(res.Rows))
	}
	env := res.Rows[0].Env
	rd := codec.NewReader(responseRows(nil, res))
	rd.Count(2)
	_, rendered := zoomin.ReadRow(rd)
	if err := rd.Done(); err != nil {
		return shownRow{}, err
	}
	out := shownRow{rendered: rendered, zoomed: map[string][]annotation.ID{}}
	for name, text := range rendered {
		if want := env.Object(name).Render(); text != want {
			t.Errorf("bird %d %s: response renders %s, the result object %s", id, name, text, want)
		}
	}
	for _, name := range zoomedInstances {
		var ids []annotation.ID
		for index := 1; ; index++ {
			rows, _, err := db.ZoomIn(ctx, engine.ZoomInRequest{QID: res.QID, Instance: name, Index: index})
			if err != nil {
				break // past the last element
			}
			for _, r := range rows {
				for _, a := range r.Annotations {
					ids = append(ids, a.ID)
				}
			}
		}
		slices.Sort(ids)
		if want := env.Object(name).Members(); !slices.Equal(ids, want) {
			t.Errorf("bird %d %s: zoom-ins reach %v, the result object holds %v", id, name, ids, want)
		}
		out.zoomed[name] = ids
	}
	return out, nil
}

// mustShowRow is showRow on the test's goroutine.
func mustShowRow(t testing.TB, db *engine.DB, id int) shownRow {
	t.Helper()
	out, err := showRow(t, db, id)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var labelCount = regexp.MustCompile(`\(\w+, (\d+)\)`)

// classified sums the label counts of a rendered classifier object.
func classified(rendered string) int {
	n := 0
	for _, m := range labelCount.FindAllStringSubmatch(rendered, -1) {
		k, _ := strconv.Atoi(m[1])
		n += k
	}
	return n
}

// TestPresentationFollowsWrites: SELECT and ZOOMIN a row (twice, so the
// second read comes from the memo), add an annotation to it, and read it
// again. The rendered summaries and the zoomed ids must include the new
// annotation.
func TestPresentationFollowsWrites(t *testing.T) {
	db := viewWorld(t, 4, false)
	mustShowRow(t, db, 3)
	before := mustShowRow(t, db, 3)
	viewExec(t, db, "ADD ANNOTATION 'found eating stonewort by the northern lake shore' ON birds WHERE id = 3")
	after := mustShowRow(t, db, 3)
	if got, want := classified(after.rendered["ClassBird1"]), classified(before.rendered["ClassBird1"])+1; got != want {
		t.Errorf("after the write the classifier counts %d annotations, want %d:\n%s", got, want, after.rendered["ClassBird1"])
	}
	for _, name := range zoomedInstances {
		if after.rendered[name] == before.rendered[name] {
			t.Errorf("%s renders as before the write: %s", name, after.rendered[name])
		}
		var added []annotation.ID
		for _, id := range after.zoomed[name] {
			if !slices.Contains(before.zoomed[name], id) {
				added = append(added, id)
			}
		}
		if len(added) != 1 || len(after.zoomed[name]) != len(before.zoomed[name])+1 {
			t.Errorf("%s: zoom-ins reach %v after the write, %v before", name, after.zoomed[name], before.zoomed[name])
		}
	}
}

// TestPresentationFollowsWritesUnderReaders is TestPresentationFollowsWrites
// as a hammer: readers SELECT and ZOOMIN four rows while one writer adds
// annotations to them. Every read must agree with itself (showRow), no
// reader may see a row's classifier count go down, and once the writer is
// done every row must show all of its writes. Run with -race.
func TestPresentationFollowsWritesUnderReaders(t *testing.T) {
	db := viewWorld(t, 4, false)
	const rows, writes = 4, 24
	initial := make([]int, rows+1)
	for id := 1; id <= rows; id++ {
		initial[id] = classified(mustShowRow(t, db, id).rendered["ClassBird1"])
	}
	var wg sync.WaitGroup
	var reads atomic.Int64
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := make([]int, rows+1)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := (r+i)%rows + 1
				shown, err := showRow(t, db, id)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				n := classified(shown.rendered["ClassBird1"])
				if n < seen[id] {
					t.Errorf("reader %d: bird %d counted %d annotations after %d", r, id, n, seen[id])
					return
				}
				seen[id] = n
				reads.Add(1)
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		for reads.Load() < int64(2*i) && !t.Failed() { // interleave: reads between any two writes
			runtime.Gosched()
		}
		viewExec(t, db, fmt.Sprintf("ADD ANNOTATION 'observed feeding on stonewort at dawn, visit %d' ON birds WHERE id = %d", i, i%rows+1))
	}
	close(done)
	wg.Wait()
	for id := 1; id <= rows; id++ {
		if got, want := classified(mustShowRow(t, db, id).rendered["ClassBird1"]), initial[id]+writes/rows; got != want {
			t.Errorf("bird %d: %d annotations classified after the writes, want %d", id, got, want)
		}
	}
}

// responseRows appends res's rows section to dst as a SELECT's response
// carries it.
func responseRows(dst []byte, res *engine.Result) []byte {
	w := codec.NewWriter(dst)
	zoomin.AppendRows(w, res.Rows)
	return w.Bytes()
}

// TestPointSelectMaterializesInConstantAllocs: a point SELECT whose stored
// objects are memoised, with its response rows, allocates the same (±10 %)
// at 16 and at 256 annotations per row. Admitting the result to the
// zoom-in cache encodes nothing, and the rows section reuses each object's
// rendering, so nothing grows with the row's annotations. The rows section
// is written into a reused buffer, as a connection's response frames are.
// Allocation counts, no wall clock.
func TestPointSelectMaterializesInConstantAllocs(t *testing.T) {
	const q = "SELECT id, name, region FROM birds WHERE id = 5"
	perRun := func(db *engine.DB) float64 {
		viewExec(t, db, q) // latches the row's stored objects shared
		var buf []byte
		return testing.AllocsPerRun(20, func() {
			res, err := db.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			buf = responseRows(buf[:0], res)
		})
	}
	small, large := perRun(viewWorld(t, 16, false)), perRun(viewWorld(t, 256, false))
	if large > small*1.1 || large < small*0.9 {
		t.Errorf("%.0f allocs at 16 annotations per row, %.0f at 256", small, large)
	}
}
