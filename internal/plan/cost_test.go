package plan

import (
	"fmt"
	"strings"
	"testing"

	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// costWorld builds a 2000-row table T(k, v, grp) with indexes on k (unique
// values) and grp (20 distinct values, 100 rows each), sized so selective
// and non-selective predicates land on opposite sides of the cost model's
// break-even point.
func costWorld(t *testing.T, w *world) {
	t.Helper()
	tbl, err := w.cat.CreateTable("T", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "grp", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tbl.Insert(types.Tuple{
			types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewInt(int64(i % 20)),
		})
	}
	for _, col := range []string{"k", "grp"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
}

// explainOf plans q and renders its operator tree.
func explainOf(t *testing.T, w *world, q string, opts Options) string {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	op, err := New(w.cat, w.envs, opts).PlanSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return exec.Explain(op)
}

func TestCostModelPicksIndexForSelectivePredicate(t *testing.T) {
	w := newWorld(t)
	costWorld(t, w)
	out := explainOf(t, w, "SELECT v FROM T WHERE k = 1234", Options{})
	if !strings.Contains(out, "Scan T AS T path=index ON k = 1234") {
		t.Errorf("selective equality not index-scanned:\n%s", out)
	}
	if !strings.Contains(out, "est≈1 rows") {
		t.Errorf("estimate missing from plan:\n%s", out)
	}
	// A selective range uses the range scan.
	out = explainOf(t, w, "SELECT v FROM T WHERE k BETWEEN 10 AND 14", Options{})
	if !strings.Contains(out, "Scan T AS T path=index_range ON k [>= 10, <= 14]") {
		t.Errorf("selective range not index-scanned:\n%s", out)
	}
}

func TestCostModelPicksFullScanForNonSelectivePredicate(t *testing.T) {
	w := newWorld(t)
	costWorld(t, w)
	// k >= 100 matches 95% of the table: the index would resolve ~1900
	// random lookups, so the sequential scan must win.
	out := explainOf(t, w, "SELECT v FROM T WHERE k >= 100", Options{})
	if !strings.Contains(out, "Scan T AS T path=full workers=1") {
		t.Errorf("expected a full scan:\n%s", out)
	}
	// The requested worker count changes the workers= attribute and
	// nothing else about the plan.
	par := explainOf(t, w, "SELECT v FROM T WHERE k >= 100", Options{Parallelism: 4})
	if want := strings.Replace(out, "workers=1", "workers=4", 1); par != want {
		t.Errorf("plan under parallelism:\n%s\nwant:\n%s", par, want)
	}
}

func TestCostModelPrefersMostSelectiveIndex(t *testing.T) {
	w := newWorld(t)
	costWorld(t, w)
	// Both predicates are indexed; k = 7 matches 1 row, grp = 3 matches
	// 100. The planner must pick the k index.
	out := explainOf(t, w, "SELECT v FROM T WHERE grp = 3 AND k = 7", Options{})
	if !strings.Contains(out, "path=index ON k = 7") {
		t.Errorf("planner did not pick the most selective index:\n%s", out)
	}
}

func TestCostModelTinyTableFullScans(t *testing.T) {
	w := newWorld(t)
	tbl, _ := w.cat.Table("R")
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	// A 3-row single-page table is cheaper to scan than to probe.
	out := explainOf(t, w, "SELECT b FROM R WHERE a = 1", Options{})
	if !strings.Contains(out, "path=full") {
		t.Errorf("tiny table index-scanned:\n%s", out)
	}
}

func TestCostModelEquivalenceAcrossAccessPaths(t *testing.T) {
	w := newWorld(t)
	costWorld(t, w)
	// Index and forced-full-scan plans agree on results for selective and
	// non-selective predicates alike.
	for _, q := range []string{
		"SELECT k, v FROM T WHERE k = 42",
		"SELECT k, v FROM T WHERE grp = 5",
		"SELECT k, v FROM T WHERE k BETWEEN 100 AND 1900",
		"SELECT k, v FROM T WHERE k < 3",
	} {
		chosen, _ := w.run(t, q, Options{})
		forced, _ := w.run(t, q, Options{DisableIndexScan: true})
		if len(chosen) != len(forced) {
			t.Errorf("%q: chosen path %d rows, full scan %d rows", q, len(chosen), len(forced))
		}
	}
}

func TestCostModelCountersTrackChoices(t *testing.T) {
	w := newWorld(t)
	costWorld(t, w)
	var c Counters
	opts := Options{Counters: &c}
	for _, q := range []string{
		"SELECT v FROM T WHERE k = 1",    // index scan
		"SELECT v FROM T WHERE k < 5",    // index range scan
		"SELECT v FROM T WHERE k >= 100", // full scan
	} {
		stmt, _ := sql.Parse(q)
		if _, err := New(w.cat, w.envs, opts).PlanSelect(stmt.(*sql.Select)); err != nil {
			t.Fatal(err)
		}
	}
	got := fmt.Sprintf("idx=%d range=%d full=%d",
		c.IndexScans.Load(), c.IndexRangeScans.Load(), c.FullScans.Load())
	if got != "idx=1 range=1 full=1" {
		t.Errorf("counters = %s", got)
	}
}
