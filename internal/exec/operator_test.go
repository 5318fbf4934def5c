package exec

import (
	"runtime"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/sql"
	"insightnotes/internal/storage"
	"insightnotes/internal/summary"
	"insightnotes/internal/textmining"
	"insightnotes/internal/types"
)

// testEnvSource is a map-backed EnvelopeSource. Like the engine's store,
// it hands out clones — the pipeline mutates what it receives.
type testEnvSource map[string]map[types.RowID]*summary.Envelope

func (s testEnvSource) EnvelopeFor(table string, row types.RowID) *summary.Envelope {
	env := s[table][row]
	if env == nil {
		return nil
	}
	return env.Clone()
}

// fixture builds tables R(a,b,c) and S(x,z) echoing Figure 2, a classifier
// instance, and per-row envelopes.
type fixture struct {
	cat  *catalog.Catalog
	r, s *catalog.Table
	envs testEnvSource
	cls  *summary.Instance
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewMemStore(), 128))
	r, err := cat.CreateTable("R", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.CreateTable("S", types.NewSchema(
		types.Column{Name: "x", Kind: types.KindInt},
		types.Column{Name: "z", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := textmining.NewNaiveBayes([]string{"Comment", "Provenance"})
	if err != nil {
		t.Fatal(err)
	}
	nb.Learn("looks wrong needs checking", "Comment")
	nb.Learn("derived from experiment dataset", "Provenance")
	cls, err := summary.NewClassifierInstance("ClassBird2", nb)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		cat: cat, r: r, s: s,
		envs: testEnvSource{"R": {}, "S": {}},
		cls:  cls,
	}
}

// addRow inserts a tuple and attaches n comment annotations covering cols.
func (f *fixture) addRow(t *testing.T, tbl *catalog.Table, tu types.Tuple,
	startAnn annotation.ID, n int, cols annotation.ColSet) types.RowID {
	t.Helper()
	row, err := tbl.Insert(tu)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		env := summary.NewEnvelope()
		for i := 0; i < n; i++ {
			a := annotation.Annotation{ID: startAnn + annotation.ID(i), Text: "looks wrong needs checking"}
			env.Add(f.cls, f.cls.Summarize(a), cols)
		}
		f.envs[tbl.Name()][row] = env
	}
	return row
}

func colRef(t *testing.T, name string, schema types.Schema) *Compiled {
	t.Helper()
	c, err := Compile(&sql.ColRef{Name: name}, schema)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScanProducesRowsWithEnvelopes(t *testing.T) {
	f := newFixture(t)
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")}, 1, 3, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(2), types.NewInt(3), types.NewString("v")}, 0, 0, 0)
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Env == nil || rows[0].Env.Object("ClassBird2").Len() != 3 {
		t.Error("first row envelope missing or wrong")
	}
	if rows[1].Env != nil {
		t.Error("unannotated row has envelope")
	}
	// Scan clones: mutating the result must not corrupt the store.
	rows[0].Env.Project([]int{0})
	if f.envs["R"][1].Object("ClassBird2").Len() != 3 {
		t.Error("scan did not clone the stored envelope")
	}
	if got := scan.Schema().Columns[0].QualifiedName(); got != "r.a" {
		t.Errorf("alias schema = %q", got)
	}
}

func TestFilterPassesEnvelopesUnchanged(t *testing.T) {
	f := newFixture(t)
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")}, 1, 2, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(5), types.NewInt(2), types.NewString("v")}, 10, 1, annotation.WholeRow(3))
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	pred := compileWhere(t, "r.a = 1", scan.Schema())
	rows, err := Collect(NewFilter(scan, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Tuple[0].Int() != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Selection does not change summaries (Figure 2 step 2).
	if rows[0].Env.Object("ClassBird2").Len() != 2 {
		t.Error("filter modified the envelope")
	}
}

func TestProjectCuratesEnvelope(t *testing.T) {
	f := newFixture(t)
	row, _ := f.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")})
	env := summary.NewEnvelope()
	// ann 1 on column a (0); ann 2 on column c (2).
	env.Add(f.cls, f.cls.Summarize(annotation.Annotation{ID: 1, Text: "looks wrong"}), annotation.Col(0))
	env.Add(f.cls, f.cls.Summarize(annotation.Annotation{ID: 2, Text: "derived from experiment"}), annotation.Col(2))
	f.envs["R"][row] = env

	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	items := []ProjectItem{
		{Expr: colRef(t, "r.a", scan.Schema()), Col: types.Column{Table: "r", Name: "a", Kind: types.KindInt}},
		{Expr: colRef(t, "r.b", scan.Schema()), Col: types.Column{Table: "r", Name: "b", Kind: types.KindInt}},
	}
	rows, err := Collect(NewProject(scan, items))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Tuple) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	got := rows[0].Env.Annotations()
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("surviving annotations = %v (ann 2 on projected-out c must drop)", got)
	}
	if rows[0].Env.Object("ClassBird2").Len() != 1 {
		t.Error("classifier count not decremented")
	}
}

func TestProjectComputedExpressionCoverage(t *testing.T) {
	f := newFixture(t)
	row, _ := f.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")})
	env := summary.NewEnvelope()
	env.Add(f.cls, f.cls.Summarize(annotation.Annotation{ID: 5, Text: "note"}), annotation.Col(1))
	f.envs["R"][row] = env
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	// Output: a+b — annotation on b must follow the computed column.
	sum, err := Compile(&sql.BinaryExpr{Op: "+", L: &sql.ColRef{Name: "r.a"}, R: &sql.ColRef{Name: "r.b"}}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewProject(scan, []ProjectItem{
		{Expr: sum, Col: types.Column{Name: "sum", Kind: types.KindInt}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Tuple[0].Int() != 3 {
		t.Fatalf("sum = %v", rows[0].Tuple)
	}
	if rows[0].Env == nil || rows[0].Env.Cover[5] != annotation.Col(0) {
		t.Errorf("computed-column coverage = %v", rows[0].Env)
	}
}

func TestHashJoinMergesEnvelopes(t *testing.T) {
	f := newFixture(t)
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")}, 1, 2, annotation.WholeRow(3))
	f.addRow(t, f.s, types.Tuple{types.NewInt(1), types.NewString("z1")}, 11, 1, annotation.WholeRow(2))
	f.addRow(t, f.s, types.Tuple{types.NewInt(9), types.NewString("z9")}, 12, 1, annotation.WholeRow(2))

	left := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	right := NewScan(f.s, "s", f.envs, FullHeap(), nil, 1)
	join := NewHashJoin(left, right,
		[]*Compiled{colRef(t, "r.a", left.Schema())},
		[]*Compiled{colRef(t, "s.x", right.Schema())})
	rows, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Tuple) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	env := rows[0].Env
	if env.Object("ClassBird2").Len() != 3 {
		t.Errorf("merged members = %d", env.Object("ClassBird2").Len())
	}
	// Right-side coverage shifted past left width 3.
	if env.Cover[11] != annotation.Col(3).Union(annotation.Col(4)) {
		t.Errorf("right coverage = %v", env.Cover[11])
	}
	if got := join.Schema().Len(); got != 5 {
		t.Errorf("join schema = %d cols", got)
	}
}

func TestHashJoinSharedAnnotationDedup(t *testing.T) {
	f := newFixture(t)
	// The same annotation (id 7) attached to both sides.
	rRow, _ := f.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")})
	sRow, _ := f.s.Insert(types.Tuple{types.NewInt(1), types.NewString("z")})
	shared := annotation.Annotation{ID: 7, Text: "shared note"}
	rEnv := summary.NewEnvelope()
	rEnv.Add(f.cls, f.cls.Summarize(shared), annotation.WholeRow(3))
	sEnv := summary.NewEnvelope()
	sEnv.Add(f.cls, f.cls.Summarize(shared), annotation.WholeRow(2))
	f.envs["R"][rRow] = rEnv
	f.envs["S"][sRow] = sEnv

	left := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	right := NewScan(f.s, "s", f.envs, FullHeap(), nil, 1)
	rows, err := Collect(NewHashJoin(left, right,
		[]*Compiled{colRef(t, "r.a", left.Schema())},
		[]*Compiled{colRef(t, "s.x", right.Schema())}))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Env.Object("ClassBird2").Len(); got != 1 {
		t.Errorf("shared annotation counted %d times", got)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	f := newFixture(t)
	f.r.Insert(types.Tuple{types.Null(), types.NewInt(2), types.NewString("u")})
	f.s.Insert(types.Tuple{types.Null(), types.NewString("z")})
	left := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	right := NewScan(f.s, "s", f.envs, FullHeap(), nil, 1)
	rows, err := Collect(NewHashJoin(left, right,
		[]*Compiled{colRef(t, "r.a", left.Schema())},
		[]*Compiled{colRef(t, "s.x", right.Schema())}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("NULL keys joined: %d rows", len(rows))
	}
}

func TestNestedLoopJoinCondition(t *testing.T) {
	f := newFixture(t)
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("u")}, 1, 1, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(5), types.NewInt(2), types.NewString("v")}, 0, 0, 0)
	f.addRow(t, f.s, types.Tuple{types.NewInt(3), types.NewString("z")}, 21, 1, annotation.WholeRow(2))
	left := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	right := NewScan(f.s, "s", f.envs, FullHeap(), nil, 1)
	joined := left.Schema().Concat(right.Schema())
	cond, err := Compile(&sql.BinaryExpr{Op: "<", L: &sql.ColRef{Name: "r.a"}, R: &sql.ColRef{Name: "s.x"}}, joined)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewNestedLoopJoin(left, right, cond))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Tuple[0].Int() != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Env.Object("ClassBird2").Len() != 2 {
		t.Error("NL join envelope merge wrong")
	}
	// Cross join (nil condition).
	left2 := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	right2 := NewScan(f.s, "s", f.envs, FullHeap(), nil, 1)
	rows, err = Collect(NewNestedLoopJoin(left2, right2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("cross join rows = %d", len(rows))
	}
}

func TestGroupAggregateValuesAndEnvelopes(t *testing.T) {
	f := newFixture(t)
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(10), types.NewString("g1")}, 1, 1, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(20), types.NewString("g1")}, 2, 1, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(2), types.NewInt(30), types.NewString("g2")}, 3, 1, annotation.WholeRow(3))
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	keys := []*Compiled{colRef(t, "r.a", scan.Schema())}
	bArg := colRef(t, "r.b", scan.Schema())
	op := NewGroupAggregate(scan, keys,
		[]types.Column{{Name: "a", Kind: types.KindInt}},
		[]AggSpec{
			{Func: "COUNT"},
			{Func: "SUM", Arg: bArg},
			{Func: "AVG", Arg: bArg},
			{Func: "MIN", Arg: bArg},
			{Func: "MAX", Arg: bArg},
		},
		[]types.Column{
			{Name: "cnt", Kind: types.KindInt},
			{Name: "sum", Kind: types.KindInt},
			{Name: "avg", Kind: types.KindFloat},
			{Name: "min", Kind: types.KindInt},
			{Name: "max", Kind: types.KindInt},
		})
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	g1 := rows[0]
	if g1.Tuple[0].Int() != 1 || g1.Tuple[1].Int() != 2 || g1.Tuple[2].Int() != 30 ||
		g1.Tuple[3].Float() != 15 || g1.Tuple[4].Int() != 10 || g1.Tuple[5].Int() != 20 {
		t.Errorf("group 1 = %v", g1.Tuple)
	}
	// Both group members' annotations combined.
	if g1.Env == nil || g1.Env.Object("ClassBird2").Len() != 2 {
		t.Errorf("group envelope = %v", g1.Env)
	}
}

func TestGroupAggregateGlobalOverEmptyInput(t *testing.T) {
	f := newFixture(t)
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	bArg := colRef(t, "r.b", scan.Schema())
	op := NewGroupAggregate(scan, nil, nil,
		[]AggSpec{{Func: "COUNT"}, {Func: "SUM", Arg: bArg}},
		[]types.Column{{Name: "cnt", Kind: types.KindInt}, {Name: "sum", Kind: types.KindInt}})
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Tuple[0].Int() != 0 || !rows[0].Tuple[1].IsNull() {
		t.Errorf("global empty aggregate = %v", rows[0].Tuple)
	}
}

func TestGroupAggregateCountDistinctNulls(t *testing.T) {
	f := newFixture(t)
	f.r.Insert(types.Tuple{types.NewInt(1), types.Null(), types.NewString("x")})
	f.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(5), types.NewString("x")})
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	bArg := colRef(t, "r.b", scan.Schema())
	op := NewGroupAggregate(scan, nil, nil,
		[]AggSpec{{Func: "COUNT"}, {Func: "COUNT", Arg: bArg}},
		[]types.Column{{Name: "star", Kind: types.KindInt}, {Name: "cnt", Kind: types.KindInt}})
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT(*) counts rows; COUNT(b) skips NULLs.
	if rows[0].Tuple[0].Int() != 2 || rows[0].Tuple[1].Int() != 1 {
		t.Errorf("counts = %v", rows[0].Tuple)
	}
}

func TestDistinctCombinesDuplicateEnvelopes(t *testing.T) {
	f := newFixture(t)
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("dup")}, 1, 1, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("dup")}, 2, 1, annotation.WholeRow(3))
	f.addRow(t, f.r, types.Tuple{types.NewInt(9), types.NewInt(9), types.NewString("uniq")}, 0, 0, 0)
	rows, err := Collect(NewDistinct(NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The surviving duplicate carries both annotations (paper: duplicate
	// elimination merges summaries).
	if rows[0].Env.Object("ClassBird2").Len() != 2 {
		t.Errorf("distinct envelope members = %d", rows[0].Env.Object("ClassBird2").Len())
	}
}

func TestSortAndLimit(t *testing.T) {
	f := newFixture(t)
	for _, v := range []int64{3, 1, 2} {
		f.r.Insert(types.Tuple{types.NewInt(v), types.NewInt(0), types.NewString("x")})
	}
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	keys := []SortKey{{Expr: colRef(t, "r.a", scan.Schema()), Desc: false}}
	rows, err := Collect(NewSort(scan, keys))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Tuple[0].Int() != 1 || rows[2].Tuple[0].Int() != 3 {
		t.Errorf("sorted = %v %v %v", rows[0].Tuple, rows[1].Tuple, rows[2].Tuple)
	}
	// DESC.
	scan2 := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	rows, _ = Collect(NewSort(scan2, []SortKey{{Expr: colRef(t, "r.a", scan2.Schema()), Desc: true}}))
	if rows[0].Tuple[0].Int() != 3 {
		t.Errorf("desc sorted head = %v", rows[0].Tuple)
	}
	// Limit.
	scan3 := NewScan(f.r, "r", f.envs, FullHeap(), nil, 1)
	rows, _ = Collect(NewLimit(NewSort(scan3, []SortKey{{Expr: colRef(t, "r.a", scan3.Schema())}}), 2))
	if len(rows) != 2 {
		t.Errorf("limit rows = %d", len(rows))
	}
}

func TestIndexScan(t *testing.T) {
	f := newFixture(t)
	for i := int64(0); i < 10; i++ {
		f.addRow(t, f.r, types.Tuple{types.NewInt(i % 3), types.NewInt(i), types.NewString("x")},
			annotation.ID(100+i), 1, annotation.WholeRow(3))
	}
	if err := f.r.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewScan(f.r, "r", f.envs, IndexEq("a", types.NewInt(1)), nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("index scan rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tuple[0].Int() != 1 {
			t.Errorf("wrong row %v", r.Tuple)
		}
		if r.Env == nil {
			t.Error("index scan lost envelope")
		}
	}
	lo, hi := types.NewInt(1), types.NewInt(2)
	rows, err = Collect(NewScan(f.r, "r", f.envs, IndexRange("a", &lo, &hi, false, true), nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Tuple[0].Int() != 2 || rows[0].Env == nil {
		t.Fatalf("index range (1, 2] = %d rows, first %v", len(rows), rows)
	}
}

// morselFixture fills R with n rows (a = row number) and returns a scan of
// it cut into morsels of two rows, so a handful of rows exercises the
// worker pool.
func morselFixture(t *testing.T, n, workers int) (*fixture, *Scan) {
	t.Helper()
	f := newFixture(t)
	for i := 0; i < n; i++ {
		f.addRow(t, f.r, types.Tuple{types.NewInt(int64(i)), types.NewInt(0), types.NewString("x")},
			annotation.ID(100+i), 1, annotation.WholeRow(3))
	}
	scan := NewScan(f.r, "r", f.envs, FullHeap(), nil, workers)
	scan.morsel = 2
	return f, scan
}

func TestScanPoolIsOrderedAndCappedByMorsels(t *testing.T) {
	_, scan := morselFixture(t, 7, 16) // 4 morsels
	rows, err := CollectContext(Background().WithBatchSize(3), scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for i, r := range rows {
		if r.Tuple[0].Int() != int64(i) || r.Env == nil {
			t.Errorf("row %d = %v (env %v): gather out of order or envelope lost", i, r.Tuple, r.Env)
		}
	}
	if st := scan.Stats(); st.Workers != 4 || st.Morsels != 4 || st.Rows != 7 {
		t.Errorf("stats = %+v, want 4 workers, 4 morsels, 7 rows", st)
	}
}

func TestScanEmptyTableStartsNoWorkers(t *testing.T) {
	_, scan := morselFixture(t, 0, 4)
	before := runtime.NumGoroutine()
	if err := scan.Open(Background()); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines %d → %d across Open of an empty table", before, got)
	}
	if b, err := scan.NextBatch(Background()); b != nil || err != nil {
		t.Errorf("NextBatch = %v, %v; want end of stream", b, err)
	}
	scan.Close()
	if st := scan.Stats(); st.Workers != 0 || st.Morsels != 0 {
		t.Errorf("stats = %+v, want no workers and no morsels", st)
	}
}

func TestScanOneMorselRunsInline(t *testing.T) {
	_, scan := morselFixture(t, 2, 4)
	before := runtime.NumGoroutine()
	ec := Background()
	if err := scan.Open(ec); err != nil {
		t.Fatal(err)
	}
	b, err := scan.NextBatch(ec)
	if err != nil || b.Len() != 2 {
		t.Fatalf("NextBatch = %d rows, %v", b.Len(), err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines %d → %d: a one-morsel scan must run inline", before, got)
	}
	scan.Close()
	if st := scan.Stats(); st.Workers != 1 || st.Morsels != 1 {
		t.Errorf("stats = %+v, want 1 worker and 1 morsel", st)
	}
}

// TestScanReopenWithoutClose abandons a pooled run after one batch and
// opens the scan again: the second run must wait out the first run's
// workers (the race detector sees them share the snapshot otherwise) and
// produce the whole table.
func TestScanReopenWithoutClose(t *testing.T) {
	_, scan := morselFixture(t, 40, 4)
	ec := Background().WithBatchSize(1)
	if err := scan.Open(ec); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.NextBatch(ec); err != nil {
		t.Fatal(err)
	}
	rows, err := CollectContext(ec, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("rows after re-open = %d, want 40", len(rows))
	}
	for i, r := range rows {
		if r.Tuple[0].Int() != int64(i) {
			t.Fatalf("row %d = %v after re-open", i, r.Tuple)
		}
	}
}

func TestValuesOp(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	rows := []*Row{{Tuple: types.Tuple{types.NewInt(1)}}, {Tuple: types.Tuple{types.NewInt(2)}}}
	got, err := Collect(NewValues(schema, rows))
	if err != nil || len(got) != 2 {
		t.Fatalf("Collect = %v, %v", got, err)
	}
}
