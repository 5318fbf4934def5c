package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
	"insightnotes/internal/zoomin"
)

// E6ZoomInCache reproduces the §2.2 demonstration: zoom-in latency and hit
// rate under a bounded materialization cache, comparing the RCO policy
// against LRU and against no cache (every zoom-in re-executes its query).
//
// The reference stream is the regime RCO is designed for: a working set of
// expensive join results that users keep zooming into, interleaved with
// bursts of one-off references to cheap single-tuple queries. LRU lets the
// bursts flush the expensive results; RCO retains them because their
// recreation cost and reference frequency dominate their size.
func E6ZoomInCache(budgetBytes int64, queries, zoomOps int) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Caption: "Zoom-in cache: RCO vs LRU vs none (§2.2)",
		Header:  []string{"policy", "hit rate", "mean zoom latency", "evictions"},
		Notes:   "bounded disk cache; misses transparently re-execute the referenced query",
	}
	type cfg struct {
		name   string
		policy zoomin.Policy
		budget int64
	}
	if budgetBytes <= 0 {
		// Auto-size: big enough for the expensive working set plus a
		// couple of cheap entries, small enough that pollution bursts
		// force evictions.
		probe, err := e6WorkingSetBytes(queries)
		if err != nil {
			return nil, err
		}
		budgetBytes = probe + probe/8
	}
	for _, c := range []cfg{
		{"RCO", zoomin.RCO{}, budgetBytes},
		{"LRU", zoomin.LRU{}, budgetBytes},
		{"none", zoomin.RCO{}, 1}, // 1-byte budget admits nothing
	} {
		hitRate, mean, evictions, err := e6Run(c.policy, c.budget, queries, zoomOps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.0f%%", hitRate*100),
			dur(mean),
			fmt.Sprintf("%d", evictions),
		})
	}
	return t, nil
}

// e6WorkingSetBytes measures the cached size of the expensive working set
// by issuing it into an unbounded cache.
func e6WorkingSetBytes(queries int) (int64, error) {
	dir := tempDir()
	defer os.RemoveAll(dir)
	db, err := e6Setup(dir, zoomin.RCO{}, 1<<30)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	n := queries / 4
	if n < 2 {
		n = 2
	}
	if _, err := e6ExpensiveQueries(db, n); err != nil {
		return 0, err
	}
	return db.Cache().Stats().UsedBytes, nil
}

// e6Setup builds the E6 database with the given cache configuration.
func e6Setup(dir string, policy zoomin.Policy, budget int64) (*engine.DB, error) {
	db, err := engine.Open(engine.Config{
		CacheDir: dir, CacheBudget: budget, CachePolicy: policy,
	})
	if err != nil {
		return nil, err
	}
	g := workload.New(31)
	if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{
		Tuples: 12, AnnotationsPerTuple: 20, DocumentFraction: 0.05, TrainPerClass: 8,
	}); err != nil {
		return nil, err
	}
	if _, err := db.Exec(context.Background(), "CREATE TABLE sightings (sid INT, bird_id INT, cnt INT)"); err != nil {
		return nil, err
	}
	for i := 0; i < 24; i++ {
		if _, err := db.Exec(context.Background(), fmt.Sprintf(
			"INSERT INTO sightings VALUES (%d, %d, %d)", i+1, i%12+1, g.Intn(50))); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// e6ExpensiveQueries issues the expensive join working set and returns its
// QIDs.
func e6ExpensiveQueries(db *engine.DB, n int) ([]int, error) {
	var out []int
	for i := 0; i < n; i++ {
		res, err := db.Query(context.Background(), fmt.Sprintf(
			"SELECT b.name, s.cnt FROM birds b, sightings s WHERE b.id = s.bird_id AND b.id <= %d",
			6+i%6))
		if err != nil {
			return nil, err
		}
		out = append(out, res.QID)
	}
	return out, nil
}

func e6Run(policy zoomin.Policy, budget int64, queries, zoomOps int) (float64, time.Duration, int64, error) {
	dir := tempDir()
	defer os.RemoveAll(dir)
	db, err := e6Setup(dir, policy, budget)
	if err != nil {
		return 0, 0, 0, err
	}
	defer db.Close()
	g := workload.New(95)

	// Issue the query mix: a small working set of expensive joins plus a
	// long tail of cheap single-tuple selects.
	nExpensive := queries / 4
	if nExpensive < 2 {
		nExpensive = 2
	}
	expensive, err := e6ExpensiveQueries(db, nExpensive)
	if err != nil {
		return 0, 0, 0, err
	}

	zoom := func(qid int) error {
		_, _, err := db.ZoomIn(context.Background(), engine.ZoomInRequest{
			QID: qid, Instance: "ClassBird1", Index: 1 + g.Intn(4),
		})
		return err
	}
	// Warm-up: establish reference frequency on the expensive working set.
	for _, qid := range expensive {
		for k := 0; k < 3; k++ {
			if err := zoom(qid); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	db.Cache().ResetStats()

	// Measured stream: alternate bursts of fresh one-off cheap queries
	// (each materialized into the cache and zoomed once — pure pollution)
	// with re-references of the expensive working set. LRU's recency bias
	// lets the fresh entries displace the working set; RCO weighs their
	// low complexity and reference count against the working set's and
	// keeps the expensive results resident.
	start := time.Now()
	ops := 0
	pollute := 0
	for ops < zoomOps {
		// Pollution burst: new cheap queries, zoomed once each.
		for k := 0; k < 3 && ops < zoomOps; k++ {
			res, err := db.Query(context.Background(), fmt.Sprintf(
				"SELECT id, name FROM birds WHERE id <= %d", pollute%10+2))
			if err != nil {
				return 0, 0, 0, err
			}
			pollute++
			if err := zoom(res.QID); err != nil {
				return 0, 0, 0, err
			}
			ops++
		}
		// Working-set re-references.
		for k := 0; k < 5 && ops < zoomOps; k++ {
			if err := zoom(expensive[ops%len(expensive)]); err != nil {
				return 0, 0, 0, err
			}
			ops++
		}
	}
	mean := time.Since(start) / time.Duration(zoomOps)
	st := db.Cache().Stats()
	total := st.Hits + st.Misses
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(st.Hits) / float64(total)
	}
	return hitRate, mean, st.Evictions, nil
}
