package plan

import (
	"testing"

	"insightnotes/internal/sql"
)

// BenchmarkPlanSelect measures planning alone (no execution) over newWorld
// for three statement shapes: a point SELECT, a filtered two-table join,
// and a join with GROUP BY.
func BenchmarkPlanSelect(b *testing.B) {
	for _, bc := range []struct{ name, query string }{
		{"point", "SELECT a, b FROM R WHERE a = 1"},
		{"join", "SELECT r.a, r.b, s.z FROM R r, S s WHERE r.a = s.x AND r.b = 2"},
		{"group", "SELECT r.b, COUNT(*) FROM R r, S s WHERE r.a = s.x GROUP BY r.b"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := newWorld(b)
			stmt, err := sql.Parse(bc.query)
			if err != nil {
				b.Fatal(err)
			}
			p := New(w.cat, nil, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.PlanSelect(stmt.(*sql.Select)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
