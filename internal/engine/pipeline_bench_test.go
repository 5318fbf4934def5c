package engine_test

// Benchmarks of the statement pipeline that need the generated bird corpus
// (package populate imports engine, hence the external test package).

import (
	"context"
	"fmt"
	"strings"
	"testing"

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

// scanQuery's filter and projection are absorbed into the scan workers, so
// the per-tuple summary path (envelope clone, predicate, curation) is what
// parallelizes.
const scanQuery = "SELECT id, name, wingspan FROM birds WHERE wingspan >= 0.4"

// newScanWorld builds a birds table of many morsels (1024 rows each) with
// the three summary instances linked and every 8th row annotated.
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

// BenchmarkParallelScan is E14a: morsel-driven scan scaling over the worker
// pool size. Speedup tracks physical cores; on one CPU all counts collapse
// to serial throughput.
func BenchmarkParallelScan(b *testing.B) {
	db := newScanWorld(b, 8192)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), scanQuery,
					engine.WithPlanOptions(plan.Options{}), engine.WithParallelism(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchPipeline is E14b: the vectorized batch protocol vs
// row-at-a-time execution (batch size 1) on the serial plan.
func BenchmarkBatchPipeline(b *testing.B) {
	db := newScanWorld(b, 8192)
	for _, c := range []struct {
		name string
		size int
	}{{"rowAtATime", 1}, {"batch=256", 256}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), scanQuery,
					engine.WithPlanOptions(plan.Options{}), engine.WithParallelism(1),
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
// statement: 492 stored envelopes handed to the scan, rebased onto the
// grouping column and combined per region. The plan is ablated, so nothing
// is materialized.
func BenchmarkGroupByEnvelopes(b *testing.B) {
	db := newJoinScanWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(context.Background(), groupByQuery, engine.WithPlanOptions(plan.Options{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterialize is the other half: deriving the zoom-in form (labels,
// element ids, rendered text) of that statement's combined envelopes, which
// hold hundreds of cluster groups each.
func BenchmarkMaterialize(b *testing.B) {
	db := newJoinScanWorld(b)
	res, err := db.Query(context.Background(), groupByQuery, engine.WithPlanOptions(plan.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := zoomin.BuildCachedResult(1, groupByQuery, res.Schema, res.Rows, 1); len(r.Rows) != len(res.Rows) {
			b.Fatal("short result")
		}
	}
}
