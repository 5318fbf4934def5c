package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
)

// hotRowAnnotations is how many annotations the hot row holds.
const hotRowAnnotations = 512

// hotRowDB opens a durable engine holding birds(id, name) with one row
// carrying hotRowAnnotations generator annotations, 30% of them with a
// six-sentence document, under the three bird instances (the SQL of
// populate.InstallBirdInstances, inlined: populate imports engine).
func hotRowDB(b *testing.B, g *workload.Generator) (*DB, sql.Expr) {
	b.Helper()
	db, _, err := OpenDurable(Config{CacheDir: b.TempDir(), DisableMetrics: true},
		DurabilityOptions{Dir: b.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose')",
		"CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')",
		"CREATE SUMMARY INSTANCE SimCluster TYPE Cluster WITH (threshold = 0.3)",
		"CREATE SUMMARY INSTANCE TextSummary1 TYPE Snippet WITH (sentences = 2)",
	} {
		if _, err := db.Exec(context.Background(), stmt); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.TrainClassifier("ClassBird1", g.TrainingSet(workload.BirdClasses, 6)); err != nil {
		b.Fatal(err)
	}
	for _, inst := range []string{"ClassBird1", "SimCluster", "TextSummary1"} {
		if err := db.LinkInstance(inst, "birds"); err != nil {
			b.Fatal(err)
		}
	}
	stmt, err := sql.Parse("SELECT id FROM birds WHERE id = 1")
	if err != nil {
		b.Fatal(err)
	}
	where := stmt.(*sql.Select).Where
	reqs := make([]AnnotationRequest, hotRowAnnotations)
	for i := range reqs {
		reqs[i] = hotRowRequest(g, where, g.Float64() < 0.3)
	}
	for len(reqs) > 0 {
		n := min(64, len(reqs))
		if _, _, err := db.AnnotateBatch(reqs[:n]); err != nil {
			b.Fatal(err)
		}
		reqs = reqs[n:]
	}
	return db, where
}

// hotRowRequest is one generator annotation on the hot row, with a
// six-sentence document when doc is set.
func hotRowRequest(g *workload.Generator, where sql.Expr, doc bool) AnnotationRequest {
	class := g.PickClass(workload.BirdClasses)
	req := AnnotationRequest{Author: g.AuthorName(), Table: "birds", Where: where, Text: g.ClassText(class)}
	if doc {
		req.Title, req.Document = g.Document(class, 6)
	}
	return req
}

// BenchmarkAnnotateHotRow measures a durable annotation of a row that
// already holds 512 annotations under three linked instances, with and
// without a six-sentence document: "statement" is the whole Annotate call
// (resolve, store, synchronous maintenance, WAL commit), "maintenance"
// its synchronous summary maintenance alone, run through the same
// applyTasks call under the statement lock. Each iteration's annotation
// is retracted untimed, so the row stays at 512. Besides ns/op it reports
// the p99. EXPERIMENTS.md (E32) records the maintenance/statement ratio
// that ROADMAP's gate for asynchronous-only maintenance reads.
func BenchmarkAnnotateHotRow(b *testing.B) {
	for _, doc := range []bool{false, true} {
		name := "doc=none"
		if doc {
			name = "doc=6-sentences"
		}
		b.Run(name+"/statement", func(b *testing.B) {
			g := workload.New(7)
			db, where := hotRowDB(b, g)
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				req := hotRowRequest(g, where, doc)
				b.StartTimer()
				start := time.Now()
				id, _, err := db.Annotate(req)
				lat = append(lat, time.Since(start))
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Exec(context.Background(), fmt.Sprintf("DROP ANNOTATION %d", id)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			reportP99(b, lat)
		})
		b.Run(name+"/maintenance", func(b *testing.B) {
			g := workload.New(7)
			db, where := hotRowDB(b, g)
			tbl, err := db.cat.Table("birds")
			if err != nil {
				b.Fatal(err)
			}
			instances := db.cat.InstancesFor("birds")
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := hotRowRequest(g, where, doc).annotation()
				a.ID = db.anns.NextID() + annotation.ID(i)
				a.Created = db.nextAnnotationTime()
				task := maintTask{ann: a, targets: []maintTarget{{
					table: "birds", rows: []types.RowID{1},
					cols: annotation.WholeRow(tbl.Schema().Len()), instances: instances,
				}}}
				b.StartTimer()
				start := time.Now()
				db.stmtMu.Lock()
				db.applyTasks([]maintTask{task}, false)
				db.stmtMu.Unlock()
				lat = append(lat, time.Since(start))
				b.StopTimer()
				if env := tbl.Envelope(1); env != nil {
					env.RemoveAnnotation(a.ID)
				}
				b.StartTimer()
			}
			reportP99(b, lat)
		})
	}
}

// reportP99 adds the 99th percentile of lat to the benchmark's metrics.
func reportP99(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
}
