package exec

import (
	"fmt"
	"testing"

	"insightnotes/internal/catalog"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// BenchmarkScanCrossover times one scan of kv(k, v) for a
// range of k that matches a fixed share of the table, read through the
// index and through the full table, at 10k and 100k rows. It forces each
// path, which the planner never does, so it shows where the scan operator
// alone breaks even; EXPERIMENTS.md (E32) sets it beside the end-to-end
// crossover the planner's cost constants are fitted to.
func BenchmarkScanCrossover(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		tbl, err := catalog.New().CreateTable("kv", types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "v", Kind: types.KindString},
		))
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
		for _, pct := range []int{20, 50, 70} {
			w := n * pct / 100
			stmt, err := sql.Parse(fmt.Sprintf("SELECT v FROM kv WHERE k BETWEEN 0 AND %d", w-1))
			if err != nil {
				b.Fatal(err)
			}
			pred, err := Compile(stmt.(*sql.Select).Where, tbl.Schema())
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := types.NewInt(0), types.NewInt(int64(w-1))
			for _, path := range []struct {
				name string
				src  RowSource
			}{
				{"index", IndexRange("k", &lo, &hi, true, true)},
				{"full", FullTable()},
			} {
				b.Run(fmt.Sprintf("rows=%d/match=%d%%/%s", n, pct, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						rows, err := Collect(NewScan(tbl, "kv", nil, path.src, pred))
						if err != nil {
							b.Fatal(err)
						}
						if len(rows) != w {
							b.Fatalf("%d rows, want %d", len(rows), w)
						}
					}
				})
			}
		}
	}
}
