package zoomin

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
	"insightnotes/internal/textmining"
	"insightnotes/internal/types"
)

func resultSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "c1", Kind: types.KindString},
		types.Column{Name: "c3", Kind: types.KindInt},
	)
}

// figure3Result builds a cached result shaped like Figure 3: rows r1/r2
// with a two-label classifier (refute/approve) and a snippet object.
func figure3Result(t *testing.T, qid int) *CachedResult {
	t.Helper()
	nb, err := textmining.NewNaiveBayes([]string{"refute", "approve"})
	if err != nil {
		t.Fatal(err)
	}
	nb.Learn("value wrong invalid needs verification", "refute")
	nb.Learn("confirmed verified looks correct", "approve")
	cls, _ := summary.NewClassifierInstance("NaiveBayesClass", nb)
	snp, _ := summary.NewSnippetInstance("TextSummary", 2)

	mkRow := func(c1 string, c3 int64, refuting []annotation.ID, docs []annotation.ID) *exec.Row {
		env := summary.NewEnvelope()
		for _, id := range refuting {
			env.Add(cls, cls.Summarize(annotation.Annotation{ID: id, Text: "value wrong invalid"}), annotation.WholeRow(2))
		}
		for _, id := range docs {
			env.Add(snp, snp.Summarize(annotation.Annotation{
				ID: id, Title: fmt.Sprintf("Doc %d", id),
				Document: "Experiment E results. Wikipedia article text. More detail here.",
			}), annotation.WholeRow(2))
		}
		return &exec.Row{Tuple: types.Tuple{types.NewString(c1), types.NewInt(c3)}, Env: env}
	}
	rows := []*exec.Row{
		mkRow("x", 5, []annotation.ID{1}, []annotation.ID{101, 102}),
		mkRow("x", 10, []annotation.ID{2, 3}, nil),
		mkRow("y", 7, nil, nil),
	}
	return BuildCachedResult(qid, "SELECT c1, c3 FROM t", resultSchema(), rows, 10)
}

func TestBuildCachedResultZoomStructure(t *testing.T) {
	r := figure3Result(t, 101)
	if len(r.Rows) != 3 || r.QID != 101 {
		t.Fatalf("%+v", r)
	}
	row := r.Rows[0]
	// Classifier index 1 = "refute".
	ids, err := row.ZoomIDs("NaiveBayesClass", 1)
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("ZoomIDs(refute) = %v, %v", ids, err)
	}
	// Snippet index 2 = second document.
	ids, err = row.ZoomIDs("TextSummary", 2)
	if err != nil || len(ids) != 1 || ids[0] != 102 {
		t.Errorf("ZoomIDs(snippet 2) = %v, %v", ids, err)
	}
	if _, err := row.ZoomIDs("NaiveBayesClass", 9); err == nil {
		t.Error("out-of-range index accepted")
	}
	if ids, err := row.ZoomIDs("NoSuchInstance", 1); err != nil || ids != nil {
		t.Errorf("missing instance = %v, %v", ids, err)
	}
	// Unannotated row has no zoom maps.
	if r.Rows[2].Zoom != nil {
		t.Error("unannotated row has zoom map")
	}
	if !strings.Contains(row.Rendered["NaiveBayesClass"], "refute") {
		t.Errorf("rendered = %q", row.Rendered["NaiveBayesClass"])
	}
}

func TestFilterRowsWithPredicate(t *testing.T) {
	r := figure3Result(t, 101)
	// Figure 3(a): Where C1 = 'x' selects r1 and r2.
	stmt, _ := sql.Parse("SELECT c1 FROM t WHERE c1 = 'x'")
	pred, err := exec.Compile(stmt.(*sql.Select).Where, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.FilterRows(pred)
	if err != nil || len(rows) != 2 {
		t.Fatalf("FilterRows = %d rows, %v", len(rows), err)
	}
	all, _ := r.FilterRows(nil)
	if len(all) != 3 {
		t.Errorf("nil predicate rows = %d", len(all))
	}
}

func TestResultSerializationRoundTrip(t *testing.T) {
	r := figure3Result(t, 7)
	data, err := r.encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.QID != 7 || len(back.Rows) != 3 || back.SQL != r.SQL {
		t.Fatalf("%+v", back)
	}
	// Tuples round-trip with kind fidelity.
	if back.Rows[0].Tuple[1].Kind() != types.KindInt || back.Rows[0].Tuple[1].Int() != 5 {
		t.Errorf("tuple = %v", back.Rows[0].Tuple)
	}
	ids, err := back.Rows[1].ZoomIDs("NaiveBayesClass", 1)
	if err != nil || len(ids) != 2 {
		t.Errorf("zoom after round trip = %v, %v", ids, err)
	}
	if _, err := decodeResult([]byte("nonsense")); err == nil {
		t.Error("corrupt data decoded")
	}
}

func TestCachePutGetHit(t *testing.T) {
	c, err := NewCache(t.TempDir(), 1<<20, RCO{})
	if err != nil {
		t.Fatal(err)
	}
	r := figure3Result(t, 1)
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	got, hit, err := c.Get(1)
	if err != nil || !hit || got.QID != 1 {
		t.Fatalf("Get = %v, %v, %v", got, hit, err)
	}
	if _, hit, _ := c.Get(99); hit {
		t.Error("missing qid hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.UsedBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheBudgetEviction(t *testing.T) {
	r := figure3Result(t, 1)
	data, _ := r.encode()
	one := int64(len(data))
	c, err := NewCache(t.TempDir(), one*2+one/2, LRU{}) // fits 2 entries
	if err != nil {
		t.Fatal(err)
	}
	for qid := 1; qid <= 3; qid++ {
		rr := figure3Result(t, qid)
		if err := c.Put(rr); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// LRU evicted qid 1.
	if c.Contains(1) || !c.Contains(2) || !c.Contains(3) {
		t.Error("LRU victim wrong")
	}
}

func TestCacheRCOPrefersComplexEntries(t *testing.T) {
	r := figure3Result(t, 1)
	data, _ := r.encode()
	one := int64(len(data))
	c, err := NewCache(t.TempDir(), one*2+one/2, RCO{})
	if err != nil {
		t.Fatal(err)
	}
	cheap := figure3Result(t, 1)
	cheap.Complexity = 1
	costly := figure3Result(t, 2)
	costly.Complexity = 1000
	c.Put(cheap)
	c.Put(costly)
	// Both referenced equally; insert a third: RCO must evict the cheap one
	// despite the costly one being older in LRU terms... reference costly
	// first so LRU would pick it.
	c.Get(2)
	c.Get(1)
	third := figure3Result(t, 3)
	third.Complexity = 500
	c.Put(third)
	if !c.Contains(2) {
		t.Error("RCO evicted the high-complexity entry")
	}
	if c.Contains(1) {
		t.Error("RCO kept the cheap entry")
	}
}

func TestCacheOversizedResultSkipped(t *testing.T) {
	c, err := NewCache(t.TempDir(), 64, RCO{}) // tiny budget
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(figure3Result(t, 1)); err != nil {
		t.Fatal(err)
	}
	if c.Contains(1) {
		t.Error("oversized result admitted")
	}
}

func TestCacheReplaceSameQID(t *testing.T) {
	c, _ := NewCache(t.TempDir(), 1<<20, RCO{})
	c.Put(figure3Result(t, 5))
	used1 := c.Stats().UsedBytes
	c.Put(figure3Result(t, 5)) // replace, not duplicate
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes != used1 {
		t.Errorf("stats after replace = %+v", st)
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(t.TempDir(), 0, RCO{}); err == nil {
		t.Error("zero budget accepted")
	}
	c, _ := NewCache(t.TempDir(), 1<<20, nil) // nil policy defaults to RCO
	if c.PolicyName() != "RCO" {
		t.Errorf("default policy = %q", c.PolicyName())
	}
}

func TestCacheResetStats(t *testing.T) {
	c, _ := NewCache(t.TempDir(), 1<<20, RCO{})
	c.Put(figure3Result(t, 1))
	c.Get(1)
	c.ResetStats()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCachedElementsMatchObject: a merged and then curated result caches,
// for every row and instance, one id list per label, none of them lost —
// the lists partition the object's members (a class label no member
// carries is the only list that may be empty).
func TestCachedElementsMatchObject(t *testing.T) {
	nb, err := textmining.NewNaiveBayes([]string{"refute", "approve", "unused"})
	if err != nil {
		t.Fatal(err)
	}
	nb.Learn("value wrong invalid needs verification", "refute")
	nb.Learn("confirmed verified looks correct", "approve")
	cls, _ := summary.NewClassifierInstance("C", nb)
	clu, _ := summary.NewClusterInstance("S", summary.DefaultSimThreshold)
	snp, _ := summary.NewSnippetInstance("T", 2)
	texts := []string{"value wrong invalid", "confirmed verified correct", "seen feeding at the lake shore", "wingspan measured in the field"}
	build := func(first annotation.ID, n int) *summary.Envelope {
		env := summary.NewEnvelope()
		for k := 0; k < n; k++ {
			a := annotation.Annotation{ID: first + annotation.ID(k), Text: texts[k%len(texts)]}
			cols := annotation.Col(k % 3)
			if k%5 == 0 {
				a.Title, a.Document = fmt.Sprintf("Doc %d", a.ID), "Experiment results. More detail here."
			}
			for _, in := range []*summary.Instance{cls, clu, snp} {
				env.Add(in, in.Summarize(a), cols)
			}
		}
		return env
	}
	var rows []*exec.Row
	for r := 0; r < 4; r++ {
		env := build(annotation.ID(1+10*r), 12) // overlaps the next row's ids by two
		env.Merge(build(annotation.ID(5+10*r), 9), 3)
		env.Project([]int{0, 2, 4}) // curates: drops what covers only columns 1, 3, 5
		rows = append(rows, &exec.Row{Tuple: types.Tuple{types.NewInt(int64(r))}, Env: env})
	}
	res := BuildCachedResult(7, "SELECT …", resultSchema(), rows, 1)
	for r, cr := range res.Rows {
		env := rows[r].Env
		if len(cr.Zoom) != len(env.Objects) || len(cr.Label) != len(env.Objects) || len(cr.Rendered) != len(env.Objects) {
			t.Fatalf("row %d: %d zoom, %d label, %d rendered entries for %d objects", r, len(cr.Zoom), len(cr.Label), len(cr.Rendered), len(env.Objects))
		}
		for name, obj := range env.Objects {
			if len(cr.Label[name]) != len(cr.Zoom[name]) || len(cr.Label[name]) == 0 {
				t.Errorf("row %d %s: %d labels, %d id lists", r, name, len(cr.Label[name]), len(cr.Zoom[name]))
			}
			var union []annotation.ID
			for i, ids := range cr.Zoom[name] {
				if len(ids) == 0 && !(obj.Instance().Type == summary.TypeClassifier && cr.Label[name][i] == "unused") {
					t.Errorf("row %d %s: element %d (%s) has no annotations", r, name, i+1, cr.Label[name][i])
				}
				if !slices.IsSorted(ids) {
					t.Errorf("row %d %s: element %d ids not sorted: %v", r, name, i+1, ids)
				}
				union = append(union, ids...)
			}
			slices.Sort(union)
			if !slices.Equal(union, obj.Members()) {
				t.Errorf("row %d %s: elements cover %v, members are %v", r, name, union, obj.Members())
			}
			if cr.Rendered[name] != obj.Render() {
				t.Errorf("row %d %s: rendered %q, object renders %q", r, name, cr.Rendered[name], obj.Render())
			}
		}
	}
}
