package catalog

import (
	"fmt"
	"testing"

	"insightnotes/internal/types"
)

// benchTable fills a kv(k, v) table with n rows.
func benchTable(b *testing.B, n int) *Table {
	b.Helper()
	tbl, err := New().CreateTable("kv", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(types.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("value-%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkTableGet measures one row lookup by id in a 100k-row table
// (EXPERIMENTS.md, E32).
func BenchmarkTableGet(b *testing.B) {
	const n = 100_000
	tbl := benchTable(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Get(types.RowID(1 + (i*7919)%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableScan measures one walk of a 100k-row table in row-id
// order, with and without a third of its rows deleted (EXPERIMENTS.md,
// E32).
func BenchmarkTableScan(b *testing.B) {
	const n = 100_000
	for _, deleted := range []bool{false, true} {
		b.Run(fmt.Sprintf("deleted=%v", deleted), func(b *testing.B) {
			tbl := benchTable(b, n)
			live := n
			if deleted {
				for row := types.RowID(3); row <= n; row += 3 {
					if err := tbl.Delete(row); err != nil {
						b.Fatal(err)
					}
					live--
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seen := 0
				tbl.Scan(func(types.RowID, types.Tuple) bool { seen++; return true })
				if seen != live {
					b.Fatalf("scan saw %d rows, want %d", seen, live)
				}
			}
		})
	}
}
