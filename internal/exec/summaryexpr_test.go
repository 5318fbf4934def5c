package exec

import (
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
	"insightnotes/internal/textmining"
	"insightnotes/internal/types"
)

// summaryRows builds in-memory rows with classifier + cluster envelopes:
// row i carries i disease annotations (i = 0..3).
func summaryRows(t *testing.T) (types.Schema, []*Row, *summary.Instance, *summary.Instance) {
	t.Helper()
	nb, err := textmining.NewNaiveBayes([]string{"Behavior", "Disease"})
	if err != nil {
		t.Fatal(err)
	}
	nb.Learn("feeding foraging stonewort", "Behavior")
	nb.Learn("influenza infection lesions", "Disease")
	cls, err := summary.NewClassifierInstance("C", nb)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := summary.NewClusterInstance("S", summary.DefaultSimThreshold)
	if err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(types.Column{Table: "t", Name: "id", Kind: types.KindInt})
	var rows []*Row
	nextAnn := annotation.ID(1)
	for i := 0; i < 4; i++ {
		row := &Row{Tuple: types.Tuple{types.NewInt(int64(i))}}
		if i > 0 {
			env := summary.NewEnvelope()
			for k := 0; k < i; k++ {
				a := annotation.Annotation{ID: nextAnn, Text: "influenza infection lesions observed"}
				nextAnn++
				env.Add(cls, cls.Summarize(a), annotation.Col(0))
				env.Add(clu, clu.Summarize(a), annotation.Col(0))
			}
			row.Env = env
		}
		rows = append(rows, row)
	}
	return schema, rows, cls, clu
}

func summaryExpr(t *testing.T, cond string, schema types.Schema) *Compiled {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileRow(stmt.(*sql.Select).Where, schema)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFilterSummaryCount(t *testing.T) {
	schema, rows, _, _ := summaryRows(t)
	pred := summaryExpr(t, "SUMMARY_COUNT(C, 'Disease') >= 2", schema)
	if !pred.HasSummaryTerms() {
		t.Error("HasSummaryTerms = false")
	}
	got, err := Collect(NewFilter(NewValues(schema, rows), pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Tuple[0].Int() != 2 || got[1].Tuple[0].Int() != 3 {
		t.Fatalf("rows = %v", got)
	}
}

func TestFilterSummaryTotalAndGroups(t *testing.T) {
	schema, rows, _, _ := summaryRows(t)
	pred := summaryExpr(t, "SUMMARY_TOTAL(S) = 0", schema)
	got, err := Collect(NewFilter(NewValues(schema, rows), pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tuple[0].Int() != 0 {
		t.Fatalf("rows = %v", got)
	}
	pred = summaryExpr(t, "SUMMARY_GROUPS(S) = 1", schema)
	got, err = Collect(NewFilter(NewValues(schema, rows), pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // all annotated rows cluster into one similar group
		t.Fatalf("rows = %d", len(got))
	}
}

func TestFilterSummaryTypeMismatches(t *testing.T) {
	schema, rows, _, _ := summaryRows(t)
	for _, cond := range []string{
		"SUMMARY_COUNT(S, 'Disease') > 0", // cluster has no labels
		"SUMMARY_GROUPS(C) > 0",           // classifier has no groups
		"SUMMARY_COUNT(C, 'Missing') > 0", // unknown label
	} {
		pred := summaryExpr(t, cond, schema)
		if _, err := Collect(NewFilter(NewValues(schema, rows), pred)); err == nil {
			t.Errorf("%q evaluated without error", cond)
		}
	}
	// Missing instance yields 0, not an error.
	pred := summaryExpr(t, "SUMMARY_TOTAL(NoSuch) = 0", schema)
	got, err := Collect(NewFilter(NewValues(schema, rows), pred))
	if err != nil || len(got) != 4 {
		t.Errorf("missing instance: %d rows, %v", len(got), err)
	}
}

func TestSortBySummary(t *testing.T) {
	schema, rows, _, _ := summaryRows(t)
	// Sort descending by disease count, ascending id tiebreak.
	countExpr := summaryCallExpr(t, "SUMMARY_COUNT(C, 'Disease')", schema)
	idExpr, err := Compile(&sql.ColRef{Name: "id"}, schema)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := Collect(NewSort(NewValues(schema, rows), []SortKey{
		{Expr: countExpr, Desc: true},
		{Expr: idExpr},
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 2, 1, 0}
	for i, w := range want {
		if sorted[i].Tuple[0].Int() != w {
			t.Fatalf("order = %v at %d, want %v", sorted[i].Tuple[0], i, w)
		}
	}
}

// The {op} metric label, the slow log and EXPLAIN name a filter or sort
// after what its expressions read, so dashboards keyed on summary_filter /
// summary_sort keep working with one operator each.
func TestSummaryOperatorNames(t *testing.T) {
	schema, rows, _, _ := summaryRows(t)
	idExpr, err := Compile(&sql.ColRef{Name: "id"}, schema)
	if err != nil {
		t.Fatal(err)
	}
	values := NewValues(schema, rows)
	for _, c := range []struct {
		op             Operator
		name, describe string
	}{
		{NewFilter(values, summaryExpr(t, "SUMMARY_TOTAL(C) > 0", schema)), "summary_filter", "SummaryFilter "},
		{NewFilter(values, summaryExpr(t, "id > 0", schema)), "filter", "Filter "},
		{NewSort(values, []SortKey{{Expr: idExpr}, {Expr: summaryCallExpr(t, "SUMMARY_TOTAL(C)", schema)}}), "summary_sort", "SummarySort "},
		{NewSort(values, []SortKey{{Expr: idExpr}}), "sort", "Sort "},
	} {
		if got := OperatorName(c.op); got != c.name {
			t.Errorf("OperatorName = %q, want %q", got, c.name)
		}
		if got := c.op.(Described).Describe(); !strings.HasPrefix(got, c.describe) {
			t.Errorf("Describe = %q, want prefix %q", got, c.describe)
		}
	}
}

// summaryCallExpr compiles a bare summary call via a comparison hack: parse
// "call > -1" and take the left side.
func summaryCallExpr(t *testing.T, call string, schema types.Schema) *Compiled {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + call + " > -1")
	if err != nil {
		t.Fatal(err)
	}
	bin := stmt.(*sql.Select).Where.(*sql.BinaryExpr)
	c, err := CompileRow(bin.L, schema)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileRejectsSummaryCalls(t *testing.T) {
	schema, _, _, _ := summaryRows(t)
	stmt, _ := sql.Parse("SELECT x FROM t WHERE SUMMARY_TOTAL(C) > 0")
	if _, err := Compile(stmt.(*sql.Select).Where, schema); err == nil {
		t.Error("Compile accepted a summary call")
	}
}

func TestHasSummaryCallAndInstances(t *testing.T) {
	stmt, _ := sql.Parse(
		"SELECT x FROM t WHERE SUMMARY_COUNT(A, 'x') > 1 AND NOT (SUMMARY_TOTAL(B) = 0) AND id IS NOT NULL")
	w := stmt.(*sql.Select).Where
	if !HasSummaryCall(w) {
		t.Error("HasSummaryCall = false")
	}
	insts := SummaryInstancesIn(w)
	if len(insts) != 2 || insts[0] != "A" || insts[1] != "B" {
		t.Errorf("instances = %v", insts)
	}
	stmt2, _ := sql.Parse("SELECT x FROM t WHERE id = 1")
	if HasSummaryCall(stmt2.(*sql.Select).Where) {
		t.Error("plain predicate flagged")
	}
	if HasSummaryCall(nil) {
		t.Error("nil flagged")
	}
}

func TestEvalRowWithoutEnvelope(t *testing.T) {
	schema, _, _, _ := summaryRows(t)
	c := summaryCallExpr(t, "SUMMARY_TOTAL(C)", schema)
	v, err := c.EvalRow(&Row{Tuple: types.Tuple{types.NewInt(9)}})
	if err != nil || v.Int() != 0 {
		t.Errorf("EvalRow without env = %v, %v", v, err)
	}
}
