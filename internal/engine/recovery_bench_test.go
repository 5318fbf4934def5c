package engine_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insightnotes/internal/engine"
	"insightnotes/internal/sql"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

// BenchmarkRecover times OpenDurable on a checkpointed data directory of
// 4 000 birds × 8 annotations (32 000, 5 % with a document) under the
// three demo instances — the shape of the repository benchmark's
// point_read corpus — so each iteration installs every summary envelope
// from the checkpoint. ckpt_bytes is the checkpoint's size; summarize/op
// counts the Summarize calls an open makes, 0 when the checkpoint stores
// every object.
func BenchmarkRecover(b *testing.B) {
	const birds, perBird = 4000, 8
	dir := b.TempDir()
	cfg := engine.Config{CacheDir: b.TempDir()}
	opts := engine.DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1}
	db, _, err := engine.OpenDurable(cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	exec := func(stmt string) {
		if _, err := db.Exec(ctx, stmt); err != nil {
			db.Close()
			b.Fatal(err)
		}
	}
	exec("CREATE TABLE birds (id INT, name TEXT)")
	for lo := 1; lo <= birds; lo += 500 {
		var sb strings.Builder
		sb.WriteString("BULK INSERT INTO birds VALUES ")
		for id := lo; id < lo+500; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'bird %d')", id, id)
		}
		exec(sb.String())
	}
	exec("CREATE INDEX ON birds (id)")
	g := workload.New(3)
	if err := populate.InstallBirdInstances(db, g, 6); err != nil {
		b.Fatal(err)
	}
	var batch []engine.AnnotationRequest
	for id := 1; id <= birds; id++ {
		for k := 0; k < perBird; k++ {
			class := g.PickClass(workload.BirdClasses)
			req := engine.AnnotationRequest{Text: g.ClassText(class), Author: g.AuthorName(), Table: "birds",
				Where: idEquals(b, id)}
			if g.Float64() < 0.05 {
				req.Title, req.Document = g.Document(class, 6)
			}
			if batch = append(batch, req); len(batch) == 256 {
				if _, _, err := db.AnnotateBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = nil
			}
		}
	}
	exec("CHECKPOINT")
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		b.Fatal(err)
	}
	// The corpus is built once; the sub-benchmark reopens it b.N times.
	b.Run("32k", func(b *testing.B) {
		b.ReportMetric(float64(st.Size()), "ckpt_bytes")
		var calls int64
		for i := 0; i < b.N; i++ {
			back, _, err := engine.OpenDurable(cfg, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range back.Catalog().InstanceNames() {
				in, _ := back.Catalog().Instance(name)
				calls += in.SummarizeCalls()
			}
			back.Close()
		}
		b.ReportMetric(float64(calls)/float64(b.N), "summarize/op")
	})
}

// idEquals is the predicate id = n.
func idEquals(b *testing.B, n int) sql.Expr {
	stmt, err := sql.Parse(fmt.Sprintf("SELECT id FROM birds WHERE id = %d", n))
	if err != nil {
		b.Fatal(err)
	}
	return stmt.(*sql.Select).Where
}
