// Zoomcache: the §2.2 demonstration of zoom-in query processing over the
// limited disk-based materialization cache. The example runs the same
// skewed zoom-in reference stream under the paper's RCO policy and the LRU
// baseline, printing hit rates and latencies, and shows a transparent
// cache-miss re-execution.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"insightnotes"
)

func main() {
	ctx := context.Background()
	fmt.Println("=== zoom-in cache: RCO vs LRU under a skewed reference stream ===")
	for _, policy := range []insightnotes.CachePolicy{insightnotes.RCO(), insightnotes.LRU()} {
		hit, mean := run(policy, 10<<10)
		fmt.Printf("%-4s: hit rate %4.0f%%, mean zoom latency %v\n",
			policyName(policy), hit*100, mean.Round(10*time.Microsecond))
	}

	fmt.Println("\n=== cache miss transparently re-executes the query ===")
	// 1-byte budget: nothing is admitted.
	db := setup(insightnotes.Config{CachePolicy: insightnotes.RCO(), CacheBudget: 1})
	defer db.Close()
	res, err := db.Query(ctx, `SELECT id, name FROM birds WHERE id = 1`)
	if err != nil {
		log.Fatal(err)
	}
	zres, err := db.Exec(ctx, fmt.Sprintf(
		`ZOOMIN REFERENCE QID %d ON ClassBird INDEX 1`, res.QID))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(zres.Message) // reports "(re-executed)"
}

func policyName(p insightnotes.CachePolicy) string { return p.Name() }

// setup builds a small annotated database; cfg carries the cache policy
// and byte budget. The caller closes it, which removes the zoom-in spill
// directory Open created.
func setup(cfg insightnotes.Config) *insightnotes.DB {
	ctx := context.Background()
	db, err := insightnotes.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	must := func(stmt string) {
		if _, err := db.Exec(ctx, stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}
	must(`CREATE TABLE birds (id INT, name TEXT)`)
	for i := 1; i <= 8; i++ {
		must(fmt.Sprintf(`INSERT INTO birds VALUES (%d, 'bird %d')`, i, i))
	}
	must(`CREATE TABLE sightings (sid INT, bird_id INT, cnt INT)`)
	for i := 0; i < 16; i++ {
		must(fmt.Sprintf(`INSERT INTO sightings VALUES (%d, %d, %d)`, i+1, i%8+1, i*3))
	}
	must(`CREATE SUMMARY INSTANCE ClassBird TYPE Classifier LABELS ('Behavior', 'Other')`)
	must(`TRAIN SUMMARY ClassBird ('feeding foraging flock stonewort', 'Behavior'),
		('photo record duplicate camera', 'Other')`)
	must(`LINK SUMMARY ClassBird TO birds`)
	for i := 1; i <= 8; i++ {
		for k := 0; k < 6; k++ {
			text := "feeding and foraging near the stonewort beds"
			if k%3 == 2 {
				text = "photo record from the camera archive"
			}
			must(fmt.Sprintf(`ADD ANNOTATION '%s (obs %d)' ON birds WHERE id = %d`, text, k, i))
		}
	}
	return db
}

// run replays a reference stream that re-visits expensive join results
// while bursts of fresh cheap queries compete for the cache.
func run(policy insightnotes.CachePolicy, budget int64) (hitRate float64, mean time.Duration) {
	ctx := context.Background()
	db := setup(insightnotes.Config{CachePolicy: policy, CacheBudget: budget})
	defer db.Close()
	// Expensive working set.
	var expensive []int
	for i := 0; i < 3; i++ {
		res, err := db.Query(ctx, fmt.Sprintf(
			`SELECT b.name, s.cnt FROM birds b, sightings s WHERE b.id = s.bird_id AND b.id <= %d`,
			4+i*2))
		if err != nil {
			log.Fatal(err)
		}
		expensive = append(expensive, res.QID)
	}
	zoom := func(qid int) {
		if _, _, err := db.ZoomIn(ctx, insightnotes.ZoomInRequest{
			QID: qid, Instance: "ClassBird", Index: 1,
		}); err != nil {
			log.Fatal(err)
		}
	}
	for _, q := range expensive { // warm up reference counts
		zoom(q)
		zoom(q)
	}
	db.Cache().ResetStats()
	start := time.Now()
	const ops = 120
	for i := 0; i < ops; i++ {
		// Bursts of three fresh cheap queries (zoomed once, never again)
		// interleave with runs of working-set re-references.
		if i%8 < 3 {
			res, err := db.Query(ctx, fmt.Sprintf(
				`SELECT id, name FROM birds WHERE id <= %d`, i%6+2))
			if err != nil {
				log.Fatal(err)
			}
			zoom(res.QID)
			continue
		}
		zoom(expensive[i%len(expensive)])
	}
	st := db.Cache().Stats()
	total := st.Hits + st.Misses
	if total > 0 {
		hitRate = float64(st.Hits) / float64(total)
	}
	return hitRate, time.Since(start) / ops
}
