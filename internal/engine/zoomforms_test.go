package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/sql"
	"insightnotes/internal/zoomin"
)

// formsDB opens a zoom-in world under an LRU cache of the given budget:
// birds with a region and annotated columns, sightings to join them with,
// and the three summary types linked to birds. Every call builds the same
// state, annotation ids included.
func formsDB(t *testing.T, budget int64) *DB {
	t.Helper()
	db, err := Open(Config{CacheDir: t.TempDir(), CacheBudget: budget, CachePolicy: zoomin.LRU{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.ExecScript(context.Background(), `
		CREATE TABLE birds (id INT, name TEXT, region TEXT, wingspan FLOAT);
		INSERT INTO birds VALUES (1, 'Swan Goose', 'east', 1.8), (2, 'Mute Swan', 'west', 2.2),
			(3, 'Whooper Swan', 'east', 2.3), (4, 'Smew', 'north', 0.6),
			(5, 'Bewick Swan', 'west', 1.9), (6, 'Goosander', 'north', 0.9);
		CREATE INDEX ON birds (id);
		CREATE TABLE sightings (sid INT, bird_id INT, cnt INT);
		INSERT INTO sightings VALUES (1, 1, 4), (2, 1, 7), (3, 3, 2), (4, 4, 9), (5, 6, 1), (6, 2, 3);
		CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier LABELS ('Behavior', 'Disease', 'Anatomy', 'Other');
		TRAIN SUMMARY ClassBird1
			('found eating stonewort near the shore', 'Behavior'), ('observed feeding at dawn in flocks', 'Behavior'),
			('signs of avian influenza infection', 'Disease'), ('lesions suggest avian pox virus', 'Disease'),
			('wingspan measured at 1.8 meters', 'Anatomy'), ('large body long neck orange bill', 'Anatomy'),
			('photo attached from trail camera', 'Other'), ('see the linked wikipedia article', 'Other');
		CREATE SUMMARY INSTANCE SimCluster TYPE Cluster WITH (threshold = 0.3);
		CREATE SUMMARY INSTANCE TextSummary1 TYPE Snippet WITH (sentences = 2);
		LINK SUMMARY ClassBird1 TO birds;
		LINK SUMMARY SimCluster TO birds;
		LINK SUMMARY TextSummary1 TO birds;
	`); err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"found eating stonewort by the lake shore", "observed feeding at dawn with the flock",
		"signs of avian influenza in the wing", "photo attached from the trail camera",
		"large body and a long neck", "lesions that suggest avian pox",
	}
	for i := 0; i < 18; i++ {
		id := i%6 + 1
		stmt := fmt.Sprintf("ADD ANNOTATION '%s' ON birds WHERE id = %d", texts[(i+id)%len(texts)], id)
		switch i % 4 {
		case 1: // on the wingspan only, which the projections below drop
			stmt = fmt.Sprintf("ADD ANNOTATION 'wingspan measured at %d.%d meters' ON birds (wingspan) WHERE id = %d", 1+i%2, i, id)
		case 2:
			stmt = fmt.Sprintf("ADD ANNOTATION 'field report %d' TITLE 'Report %d' DOCUMENT 'Seen at the lake. Counted twice. Weather clear.' ON birds WHERE id = %d", i, i, id)
		}
		mustExec(t, db, stmt)
	}
	return db
}

// zoomAnswer is what one zoom-in returned, in terms every form shares: the
// rows and their annotation ids, or the error.
type zoomAnswer struct {
	Rows []string
	IDs  [][]annotation.ID
	Err  string
}

func answerOf(rows []ZoomRowResult, err error) zoomAnswer {
	var a zoomAnswer
	if err != nil {
		a.Err = err.Error()
	}
	for _, r := range rows {
		a.Rows = append(a.Rows, fmt.Sprint(r.Tuple))
		var ids []annotation.ID
		for _, ann := range r.Annotations {
			ids = append(ids, ann.ID)
		}
		a.IDs = append(a.IDs, ids)
	}
	return a
}

// liveSize is the bytes one result of q counts in the zoom-in cache.
func liveSize(t *testing.T, q string) int64 {
	db := formsDB(t, 1<<30)
	mustExec(t, db, q)
	return db.Cache().Stats().UsedBytes
}

// spilledQID runs q and references its result with one zoom-in, then runs
// q again, unreferenced, until the result has been spilled.
func spilledQID(t *testing.T, db *DB, q string) int {
	t.Helper()
	qid := mustExec(t, db, q).QID
	if _, _, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: qid, Instance: "ClassBird1", Index: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; db.Cache().Stats().Spills == 0; i++ {
		if i == 100 {
			t.Fatalf("%s: no spill after %d more results", q, i)
		}
		mustExec(t, db, q)
	}
	r, hit, err := db.Cache().Get(qid)
	if _, spilled := r.(*zoomin.CachedResult); !hit || !spilled || err != nil {
		t.Fatalf("%s: QID %d is %T, hit=%v, %v; want it spilled", q, qid, r, hit, err)
	}
	return qid
}

// TestZoomInSameFromEveryForm: a zoom-in gives the same rows and ids
// whether it reads the live result, the spilled entry, or a re-execution,
// for every query shape that builds envelopes its own way.
func TestZoomInSameFromEveryForm(t *testing.T) {
	shapes := []struct{ name, query, where string }{
		{"point", "SELECT id, name FROM birds WHERE id = 3", ""},
		{"range", "SELECT id, name, wingspan FROM birds WHERE id BETWEEN 2 AND 5", "id >= 3"},
		{"hash_join", "SELECT b.id, b.name, s.cnt FROM birds b, sightings s WHERE b.id = s.bird_id", "s.cnt > 2"},
		{"group_by", "SELECT region, COUNT(*) FROM birds GROUP BY region", ""},
		{"distinct", "SELECT DISTINCT region FROM birds", "region <> 'west'"},
		{"curating_projection", "SELECT id, name FROM birds", ""},
	}
	var reqs []ZoomInRequest
	for _, inst := range []string{"ClassBird1", "SimCluster", "TextSummary1"} {
		for index := 1; index <= 5; index++ { // 5 is past the classifier's labels
			reqs = append(reqs, ZoomInRequest{Instance: inst, Index: index})
		}
	}
	ctx := context.Background()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var where sql.Expr
			if sh.where != "" {
				stmt, err := sql.Parse("SELECT x FROM t WHERE " + sh.where)
				if err != nil {
					t.Fatal(err)
				}
				where = stmt.(*sql.Select).Where
			}
			liveDB := formsDB(t, 1<<30)
			live := mustExec(t, liveDB, sh.query).QID
			spillDB := formsDB(t, 4*liveSize(t, sh.query))
			spilled := spilledQID(t, spillDB, sh.query)
			missDB := formsDB(t, 1) // admits nothing: every zoom-in re-executes
			missed := mustExec(t, missDB, sh.query).QID

			answered := 0
			for _, req := range reqs {
				for _, w := range []sql.Expr{nil, where} {
					req.Where = w
					var answers [3]zoomAnswer
					for i, f := range []struct {
						db   *DB
						qid  int
						want bool
					}{{liveDB, live, true}, {spillDB, spilled, true}, {missDB, missed, false}} {
						req.QID = f.qid
						rows, hit, err := f.db.ZoomIn(ctx, req)
						if hit != f.want && err == nil {
							t.Fatalf("%s %d: form %d hit=%v", req.Instance, req.Index, i, hit)
						}
						answers[i] = answerOf(rows, err)
					}
					if !reflect.DeepEqual(answers[0], answers[1]) || !reflect.DeepEqual(answers[0], answers[2]) {
						t.Errorf("%s %d where %v:\n live     %+v\n spilled  %+v\n executed %+v", req.Instance, req.Index, w, answers[0], answers[1], answers[2])
					}
					if len(answers[0].Rows) > 0 {
						answered++
					}
				}
			}
			if answered == 0 {
				t.Fatal("no zoom-in returned any row; the comparison checked nothing")
			}

			// The QID 65 536 later takes the same registry slot.
			missDB.Cache().Put(&zoomin.LiveResult{QID: missed + 1<<16, SQL: sh.query})
			if _, _, err := missDB.ZoomIn(ctx, ZoomInRequest{QID: missed, Instance: "ClassBird1", Index: 1}); !errors.Is(err, zoomin.ErrQIDExpired) {
				t.Errorf("zoom-in on an expired QID: %v", err)
			}
		})
	}
}

// TestZoomInLiveResultIsASnapshot: an annotation added to a returned row
// after the SELECT changes neither form of its cached result. The live
// result references the stored envelope, which copies on write, so a live
// hit answers what the spilled entry, encoded from the result before the
// write, answers; a fresh SELECT sees the new annotation.
func TestZoomInLiveResultIsASnapshot(t *testing.T) {
	const q = "SELECT id, name FROM birds WHERE id = 3"
	const add = "ADD ANNOTATION 'found eating stonewort at the northern shore' ON birds WHERE id = 3"
	ctx := context.Background()
	zoomIDs := func(db *DB, qid int) (out []zoomAnswer) {
		for index := 1; index <= 4; index++ {
			rows, _, err := db.ZoomIn(ctx, ZoomInRequest{QID: qid, Instance: "ClassBird1", Index: index})
			out = append(out, answerOf(rows, err))
		}
		return out
	}

	liveDB := formsDB(t, 1<<30)
	live := mustExec(t, liveDB, q).QID
	mustExec(t, liveDB, add)
	fromLive := zoomIDs(liveDB, live)
	if r, hit, _ := liveDB.Cache().Get(live); !hit {
		t.Fatal("the live result left the cache")
	} else if _, ok := r.(*zoomin.LiveResult); !ok {
		t.Fatalf("QID %d is %T, want it live", live, r)
	}

	spillDB := formsDB(t, 4*liveSize(t, q))
	spilled := spilledQID(t, spillDB, q)
	mustExec(t, spillDB, add)
	if fromSpill := zoomIDs(spillDB, spilled); !reflect.DeepEqual(fromLive, fromSpill) {
		t.Errorf("after the write a live hit answers\n%+v\nthe spilled entry\n%+v", fromLive, fromSpill)
	}
	if fresh := zoomIDs(liveDB, mustExec(t, liveDB, q).QID); reflect.DeepEqual(fresh, fromLive) {
		t.Errorf("a SELECT after the write zooms to the same ids as before it: %+v", fresh)
	}
}
