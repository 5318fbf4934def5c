package engine_test

// Benchmarks of the statement pipeline that need the generated bird corpus
// (package populate imports engine, hence the external test package).

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"insightnotes/internal/codec"
	"insightnotes/internal/engine"
	"insightnotes/internal/plan"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
	"insightnotes/internal/zoomin"
)

func openBench(b *testing.B, cfg engine.Config) *engine.DB {
	b.Helper()
	cfg.CacheDir = b.TempDir()
	db, err := engine.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkInstrumentationOverhead is E12's end-to-end half: the same
// scan-heavy query stream with the metrics registry enabled (default) and
// disabled (Config.DisableMetrics). The delta is the per-statement price of
// statement counters, latency histograms, per-operator folding and sampled
// timing, against a ≤5% budget.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	for name, disable := range map[string]bool{"metricsOn": false, "metricsOff": true} {
		b.Run(name, func(b *testing.B) {
			db := openBench(b, engine.Config{DisableMetrics: disable})
			if _, err := populate.Birds(db, workload.New(10), populate.BirdCorpusSpec{
				Tuples: 16, AnnotationsPerTuple: 8, TrainPerClass: 8,
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), "SELECT id, name, wingspan FROM birds WHERE id <= 8"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scanQuery's filter and projection are absorbed into the scan, so the
// per-tuple summary path (envelope view, predicate, curation) runs there.
const scanQuery = "SELECT id, name, wingspan FROM birds WHERE wingspan >= 0.4"

// newScanWorld builds a birds table of many batches with the three summary
// instances linked and every 8th row annotated.
func newScanWorld(b *testing.B, tuples int) *engine.DB {
	b.Helper()
	db := openBench(b, engine.Config{})
	must := func(stmt string) {
		if _, err := db.Exec(context.Background(), stmt); err != nil {
			b.Fatal(err)
		}
	}
	must("CREATE TABLE birds (id INT, name TEXT, sci_name TEXT, region TEXT, wingspan FLOAT)")
	g := workload.New(1)
	for lo := 0; lo < tuples; lo += 512 {
		rows := make([]string, 0, 512)
		for i := lo; i < lo+512 && i < tuples; i++ {
			common, sci := workload.Species(i)
			rows = append(rows, fmt.Sprintf("(%d, '%s', '%s', '%s', %0.2f)",
				i+1, common, sci, g.Region(), 0.3+float64(g.Intn(250))/100))
		}
		must("INSERT INTO birds VALUES " + strings.Join(rows, ", "))
	}
	if err := populate.InstallBirdInstances(db, g, 6); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tuples; i += 8 {
		must(fmt.Sprintf("ADD ANNOTATION '%s' AUTHOR '%s' ON birds WHERE id = %d",
			g.ClassText(workload.BirdClasses[i%4]), g.AuthorName(), i+1))
	}
	return db
}

// BenchmarkBatchPipeline is E14b: the vectorized batch protocol vs
// row-at-a-time execution (batch size 1).
func BenchmarkBatchPipeline(b *testing.B) {
	db := newScanWorld(b, 8192)
	for _, c := range []struct {
		name string
		size int
	}{{"rowAtATime", 1}, {"batch=256", 256}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), scanQuery,
					engine.WithPlanOptions(plan.Options{}),
					engine.WithBatchSize(c.size)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newJoinScanWorld is the benchmark's join_scan corpus in small: 500 birds
// with 16 annotations each under the three demo instances.
func newJoinScanWorld(b *testing.B) *engine.DB {
	b.Helper()
	db := openBench(b, engine.Config{})
	if _, err := populate.Birds(db, workload.New(5), populate.BirdCorpusSpec{
		Tuples: 500, AnnotationsPerTuple: 16, DocumentFraction: 0.05, TrainPerClass: 8,
	}); err != nil {
		b.Fatal(err)
	}
	return db
}

const groupByQuery = "SELECT region, COUNT(*) FROM birds WHERE id > 8 GROUP BY region"

// BenchmarkGroupByEnvelopes is the executor's share of join_scan's slowest
// statement. runs is that statement: 492 stored envelopes handed to the
// scan, curated, combined per region and rebased onto the grouping column;
// each bird's annotation ids are one run. interleaved is one group of 492
// rows annotated round-robin (interleavedWorld), so every row's ids
// interleave with every other row's and a merge cannot copy runs. The plan
// is ablated, so nothing is materialized.
func BenchmarkGroupByEnvelopes(b *testing.B) {
	for _, bc := range []struct {
		name  string
		world func(b *testing.B) *engine.DB
		query string
	}{
		{"runs", newJoinScanWorld, groupByQuery},
		{"interleaved", func(b *testing.B) *engine.DB { return interleavedWorld(b, 492, 16) }, "SELECT grp, COUNT(*) FROM obs GROUP BY grp"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			db := bc.world(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), bc.query, engine.WithPlanOptions(plan.Options{})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanProjectEnvelopes is join_scan's scan statement without its
// LIMIT: 500 stored envelopes handed to a scan whose absorbed projection
// keeps id, region and the filter's wingspan, and a Project above it that
// drops wingspan. The corpus annotates whole rows, so neither drops an
// annotation, and each row's view keeps its stored coverage under the two
// column maps' composition. The plan is ablated, so nothing is
// materialized.
func BenchmarkScanProjectEnvelopes(b *testing.B) {
	db := newJoinScanWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(context.Background(), "SELECT id, region FROM birds WHERE wingspan >= 0",
			engine.WithPlanOptions(plan.Options{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinProbe is join_scan's join statement: 500 birds with 16
// annotations each, indexed on id, joined with 1 000 sightings (a quarter
// annotated) under an observers filter that keeps 25 of them. keyed lets
// the join read birds through the index for the build side's keys;
// fullScan (DisableIndexScan) reads and curates all 500 birds. The plan is
// ablated, so nothing is materialized.
func BenchmarkJoinProbe(b *testing.B) {
	db := newJoinScanWorld(b)
	g := workload.New(6)
	rows := make([]string, 1000)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, %d, 'site%d')", i+1, 1+g.Intn(500), i%40, i%7)
	}
	for _, stmt := range []string{
		"CREATE INDEX ON birds (id)",
		"CREATE TABLE sightings (sid INT, bird_id INT, observers INT, site TEXT)",
		"BULK INSERT INTO sightings VALUES " + strings.Join(rows, ", "),
		"LINK SUMMARY ClassBird1 TO sightings",
		"LINK SUMMARY SimCluster TO sightings",
	} {
		if _, err := db.Exec(context.Background(), stmt); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= 1000; i += 4 {
		if _, err := db.Exec(context.Background(), fmt.Sprintf("ADD ANNOTATION '%s' AUTHOR '%s' ON sightings WHERE sid = %d",
			g.ClassText(workload.BirdClasses[i%4]), g.AuthorName(), i)); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		opts plan.Options
	}{{"keyed", plan.Options{}}, {"fullScan", plan.Options{DisableIndexScan: true}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := fmt.Sprintf("SELECT b.id, b.name, s.sid FROM birds b, sightings s WHERE b.id = s.bird_id AND s.observers = %d", i%40)
				if _, err := db.Query(context.Background(), q, engine.WithPlanOptions(bc.opts)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdmit is the other half: what a SELECT pays to keep its result
// for zoom-in, admitting it to the cache as a live entry (its size estimate
// and the Put, with the evictions a full cache makes). group_by is that
// statement's combined envelopes, which hold hundreds of cluster groups
// each and are not shared. point is one stored row, whose objects a first
// read latched shared: what every later point SELECT of the row pays.
func BenchmarkAdmit(b *testing.B) {
	db := newJoinScanWorld(b)
	for _, bc := range []struct{ name, query string }{
		{"group_by", groupByQuery},
		{"point", "SELECT id, name, region FROM birds WHERE id = 7"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res, err := db.Query(context.Background(), bc.query, engine.WithPlanOptions(plan.Options{}))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				live := &zoomin.LiveResult{QID: res.QID + 1 + i, SQL: bc.query, Columns: res.Schema.Columns, Rows: res.Rows, Complexity: 1}
				if err := db.Cache().Put(live); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendRows is what a SELECT pays to write its response's rows
// section, with the same two results as BenchmarkAdmit. group_by renders
// each group's combined objects afresh; point copies the memoised
// rendering of each shared object. The section is written into a reused
// buffer, as a connection's response frames are.
func BenchmarkAppendRows(b *testing.B) {
	db := newJoinScanWorld(b)
	for _, bc := range []struct{ name, query string }{
		{"group_by", groupByQuery},
		{"point", "SELECT id, name, region FROM birds WHERE id = 7"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res, err := db.Query(context.Background(), bc.query, engine.WithPlanOptions(plan.Options{}))
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := codec.NewWriter(buf[:0])
				zoomin.AppendRows(w, res.Rows)
				buf = w.Bytes()
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
