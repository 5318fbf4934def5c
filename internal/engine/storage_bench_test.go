package engine

import (
	"context"
	"fmt"
	"testing"

	"insightnotes/internal/plan"
	"insightnotes/internal/types"
)

// storageBenchDB builds kv(k INT, v TEXT) with n rows (k = 0..n-1, unique)
// and a secondary index on k. Rows are loaded through the catalog directly
// so the 1M-row fixture builds in seconds instead of parsing a million
// INSERT statements; the benchmarked queries run the full engine path.
func storageBenchDB(b *testing.B, n int) *DB {
	b.Helper()
	db, err := Open(Config{CacheDir: b.TempDir(), DisableMetrics: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "CREATE TABLE kv (k INT, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	tbl, err := db.cat.Table("kv")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(types.Tuple{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("value-%d", i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("k"); err != nil {
		b.Fatal(err)
	}
	return db
}

// accessPaths are the two sides of every storage benchmark: the cost-based
// default (which picks the index for the selective predicates below) and a
// forced sequential scan.
var accessPaths = []struct {
	name string
	opts []StatementOption
}{
	{"index", nil},
	{"fullscan", []StatementOption{WithPlanOptions(plan.Options{DisableIndexScan: true})}},
}

// BenchmarkStoragePointLookup measures a single-row equality lookup on the
// indexed column — B+tree seek vs full heap scan — at three table sizes.
// Recorded in EXPERIMENTS.md (E15).
func BenchmarkStoragePointLookup(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		db := storageBenchDB(b, n)
		for _, path := range accessPaths {
			b.Run(fmt.Sprintf("rows=%d/%s", n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k := (i * 7919) % n
					res, err := db.Query(context.Background(),
						fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k), path.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != 1 {
						b.Fatalf("k=%d returned %d rows, want 1", k, len(res.Rows))
					}
				}
			})
		}
		db.Close()
	}
}

// BenchmarkStorageRangeScan measures a 100-row range predicate on the
// indexed column — B+tree range scan vs full heap scan. Recorded in
// EXPERIMENTS.md (E15).
func BenchmarkStorageRangeScan(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		db := storageBenchDB(b, n)
		for _, path := range accessPaths {
			b.Run(fmt.Sprintf("rows=%d/%s", n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lo := (i * 7919) % (n - 100)
					res, err := db.Query(context.Background(),
						fmt.Sprintf("SELECT v FROM kv WHERE k BETWEEN %d AND %d", lo, lo+99), path.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != 100 {
						b.Fatalf("range [%d,%d] returned %d rows, want 100", lo, lo+99, len(res.Rows))
					}
				}
			})
		}
		db.Close()
	}
}
