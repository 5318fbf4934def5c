package zoomin

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
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

// figure3Result builds a live result shaped like Figure 3: rows r1/r2
// with a two-label classifier (refute/approve) and a snippet object.
func figure3Result(t testing.TB, qid int) *LiveResult {
	t.Helper()
	return &LiveResult{QID: qid, SQL: "SELECT c1, c3 FROM t", Columns: resultSchema().Columns, Rows: figure3Rows(t), Complexity: 10}
}

// figure3Rows are figure3Result's executor rows.
func figure3Rows(t testing.TB) []*exec.Row {
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
	return []*exec.Row{
		mkRow("x", 5, []annotation.ID{1}, []annotation.ID{101, 102}),
		mkRow("x", 10, []annotation.ID{2, 3}, nil),
		mkRow("y", 7, nil, nil),
	}
}

// decoded returns r's spilled form: its spill entry, decoded.
func decoded(t testing.TB, r *LiveResult) *CachedResult {
	t.Helper()
	d, err := decodeResult(BuildCachedResult(r))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// expand runs Expand over r with the WHERE clause where ("" keeps every
// row).
func expand(t *testing.T, r Zoomable, where, instance string, index int) ([]Expansion, error) {
	t.Helper()
	var pred *exec.Compiled
	if where != "" {
		stmt, err := sql.Parse("SELECT c1 FROM t WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		if pred, err = exec.Compile(stmt.(*sql.Select).Where, r.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	return Expand(r, pred, instance, index)
}

// bothForms returns r as the cache holds it live and spilled.
func bothForms(t *testing.T, r *LiveResult) map[string]Zoomable {
	return map[string]Zoomable{"live": r, "spilled": decoded(t, r)}
}

func TestBuildCachedResultZoomStructure(t *testing.T) {
	live := figure3Result(t, 101)
	for form, r := range bothForms(t, live) {
		// Classifier index 1 = "refute".
		got, err := expand(t, r, "c3 = 5", "NaiveBayesClass", 1)
		if err != nil || len(got) != 1 || !slices.Equal(got[0].IDs, []annotation.ID{1}) {
			t.Errorf("%s: refute = %v, %v", form, got, err)
		}
		// Snippet index 2 = second document.
		got, err = expand(t, r, "c3 = 5", "TextSummary", 2)
		if err != nil || len(got) != 1 || !slices.Equal(got[0].IDs, []annotation.ID{102}) {
			t.Errorf("%s: snippet 2 = %v, %v", form, got, err)
		}
		if _, err := expand(t, r, "c3 = 5", "NaiveBayesClass", 9); err == nil {
			t.Errorf("%s: out-of-range index accepted", form)
		}
		if got, err := expand(t, r, "", "NoSuchInstance", 1); err != nil || got != nil {
			t.Errorf("%s: missing instance = %v, %v", form, got, err)
		}
		// The unannotated row has no elements, so no index is out of range.
		if got, err := expand(t, r, "c3 = 7", "NaiveBayesClass", 9); err != nil || got != nil {
			t.Errorf("%s: unannotated row = %v, %v", form, got, err)
		}
	}
	if r := decoded(t, live); len(r.Rows) != 3 || r.QID != 101 || r.Rows[2].Elements != nil {
		t.Fatalf("%+v", r)
	}
	if rendered := renderedRows(t, BuildCachedResult(live)); !strings.Contains(rendered[0]["NaiveBayesClass"], "refute") {
		t.Errorf("rendered = %q", rendered[0]["NaiveBayesClass"])
	}
}

// rowsSection returns the rows section of a spill entry.
func rowsSection(t *testing.T, entry []byte) []byte {
	t.Helper()
	r := codec.NewReader(entry)
	r.Byte()
	r.Int()
	r.Str()
	for n := r.Count(3); n > 0; n-- {
		r.Str()
		r.Str()
		r.Byte()
	}
	rows := r.Section()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// renderedRows decodes the rendered summaries of a spill entry's rows
// section.
func renderedRows(t *testing.T, entry []byte) []map[string]string {
	t.Helper()
	rd := codec.NewReader(rowsSection(t, entry))
	out := make([]map[string]string, rd.Count(2))
	for i := range out {
		_, out[i] = ReadRow(rd)
	}
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
	return out
}

// encodeEntry writes a spill entry from its decoded parts field by field,
// as the format comment at entryVersion lays it out: the reference
// BuildCachedResult must match, and the inverse of decodeResult. rendered
// holds each row's rendered summaries; nil writes none.
func encodeEntry(r *CachedResult, rendered []map[string]string) []byte {
	w := codec.NewWriter(nil)
	w.Byte(entryVersion)
	w.Varint(int64(r.QID))
	w.Str(r.SQL)
	w.Uvarint(uint64(len(r.Columns)))
	for _, c := range r.Columns {
		w.Str(c.Table)
		w.Str(c.Name)
		w.Byte(byte(c.Kind))
	}
	mark := w.BeginSection()
	w.Uvarint(uint64(len(r.Rows)))
	for i, row := range r.Rows {
		var summaries map[string]string
		if rendered != nil {
			summaries = rendered[i]
		}
		AppendRow(w, row.Tuple, summaries)
	}
	w.EndSection(mark)
	mark = w.BeginSection()
	w.Uvarint(uint64(len(r.Rows)))
	for _, row := range r.Rows {
		names := make([]string, 0, len(row.Elements))
		for name := range row.Elements {
			names = append(names, name)
		}
		slices.Sort(names)
		w.Uvarint(uint64(len(names)))
		for _, name := range names {
			appendElements(w, name, row.Elements[name])
		}
	}
	w.EndSection(mark)
	return w.Bytes()
}

// TestEntryRoundTrip pins entry format 1. The entry BuildCachedResult
// writes is the one the format comment describes for its decoded parts,
// byte for byte, and the rows section carries each object's Render.
// Multi-byte varints (a large QID, large annotation ids) are among them.
func TestEntryRoundTrip(t *testing.T) {
	rows := figure3Rows(t)
	big := summary.NewEnvelope()
	for _, row := range rows[:2] {
		big.Combine(row.Env.Clone())
	}
	cls := big.Object("NaiveBayesClass").Instance()
	for _, id := range []annotation.ID{300, 1 << 33} {
		big.Add(cls, cls.Summarize(annotation.Annotation{ID: id, Text: "confirmed verified"}), annotation.WholeRow(2))
	}
	rows = append(rows, &exec.Row{Tuple: types.Tuple{types.NewString("z"), types.NewInt(-1 << 40)}, Env: big})
	for _, qid := range []int{1, 1 << 40} {
		live := &LiveResult{QID: qid, SQL: "SELECT c1, c3 FROM t WHERE c3 <> 0", Columns: resultSchema().Columns, Rows: rows}
		entry := BuildCachedResult(live)
		rendered := renderedRows(t, entry)
		if again := encodeEntry(decoded(t, live), rendered); !bytes.Equal(again, entry) {
			t.Errorf("qid %d: the entry differs from its parts encoded field by field:\n%x\n%x", qid, entry, again)
		}
		for i, row := range rows {
			if row.Env == nil || row.Env.IsEmpty() {
				if rendered[i] != nil {
					t.Errorf("row %d: rendered %v for no summaries", i, rendered[i])
				}
				continue
			}
			if len(rendered[i]) != row.Env.NumObjects() {
				t.Errorf("row %d: %d rendered summaries for %d objects", i, len(rendered[i]), row.Env.NumObjects())
			}
			for k := range row.Env.NumObjects() {
				name, obj := row.Env.ObjectAt(k)
				if rendered[i][name] != obj.Render() {
					t.Errorf("row %d %s: rendered %q, object renders %q", i, name, rendered[i][name], obj.Render())
				}
			}
		}
	}
}

// TestFilterRowsWithPredicate: Expand keeps the rows the ZOOMIN WHERE
// clause selects, in either form.
func TestFilterRowsWithPredicate(t *testing.T) {
	for form, r := range bothForms(t, figure3Result(t, 101)) {
		for _, c := range []struct {
			where string
			want  []int64 // c3 of the rows expanded
		}{
			{"", []int64{5, 10}}, // the third row carries no classifier
			{"c1 = 'x'", []int64{5, 10}},
			{"c3 > 5", []int64{10}},
			{"c1 = 'y'", nil},
		} {
			got, err := expand(t, r, c.where, "NaiveBayesClass", 1)
			if err != nil {
				t.Fatalf("%s %q: %v", form, c.where, err)
			}
			var c3 []int64
			for _, e := range got {
				c3 = append(c3, e.Tuple[1].Int())
			}
			if !slices.Equal(c3, c.want) {
				t.Errorf("%s %q: expanded rows with c3 %v, want %v", form, c.where, c3, c.want)
			}
		}
	}
}

func TestResultSerializationRoundTrip(t *testing.T) {
	r := figure3Result(t, 7)
	data := BuildCachedResult(r)
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
	if got, err := expand(t, back, "c3 = 10", "NaiveBayesClass", 1); err != nil || len(got) != 1 || len(got[0].IDs) != 2 {
		t.Errorf("zoom after round trip = %v, %v", got, err)
	}
	if _, err := decodeResult([]byte("nonsense")); err == nil {
		t.Error("corrupt data decoded")
	}
	// Every proper prefix of an entry is an error, and so is a count
	// larger than the bytes left.
	for n := 0; n < len(data); n++ {
		if _, err := decodeResult(data[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded", n, len(data))
		}
	}
	w := codec.NewWriter(nil)
	w.Byte(entryVersion)
	w.Varint(7)
	w.Str("SELECT 1")
	w.Uvarint(1 << 20) // columns
	w.Str("c1")
	if _, err := decodeResult(w.Bytes()); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "count") {
		t.Errorf("overcounted columns: %v", err)
	}
}

// FuzzDecodeCachedResult: a spill entry decoder never panics, allocates no
// more than a small multiple of the entry, and is stable under
// decode → encode → decode.
func FuzzDecodeCachedResult(f *testing.F) {
	f.Add(BuildCachedResult(figure3Result(f, 7)))
	f.Add(BuildCachedResult(&LiveResult{QID: 1, SQL: "SELECT 1", Columns: resultSchema().Columns}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r *CachedResult
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err = decodeResult(data)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		again := encodeEntry(r, nil)
		back, err := decodeResult(again)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if third := encodeEntry(back, nil); !bytes.Equal(third, again) {
			t.Fatalf("decode → encode → decode changed the entry:\n%x\n%x", again, third)
		}
	})
}

// formOf reports whether qid is resident "live" or "spilled", or "" when
// it is not resident.
func formOf(c *Cache, qid int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[qid]
	switch {
	case !ok:
		return ""
	case c.entries[i].live != nil:
		return "live"
	}
	return "spilled"
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
	if err != nil || !hit || got != Zoomable(r) {
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
	one := r.size()
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
	one := r.size()
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
	live := &LiveResult{QID: 7, SQL: "SELECT …", Columns: resultSchema().Columns, Rows: rows}
	res := decoded(t, live)
	rendered := renderedRows(t, BuildCachedResult(live))
	for r, cr := range res.Rows {
		env := rows[r].Env
		if len(cr.Elements) != env.NumObjects() || len(rendered[r]) != env.NumObjects() {
			t.Fatalf("row %d: %d zoom, %d rendered entries for %d objects", r, len(cr.Elements), len(rendered[r]), env.NumObjects())
		}
		for k := range env.NumObjects() {
			name, obj := env.ObjectAt(k)
			els := cr.Elements[name]
			if len(els) == 0 {
				t.Errorf("row %d %s: no elements", r, name)
			}
			var union []annotation.ID
			for i, el := range els {
				if len(el.IDs) == 0 && !(obj.Instance().Type == summary.TypeClassifier && el.Label == "unused") {
					t.Errorf("row %d %s: element %d (%s) has no annotations", r, name, i+1, el.Label)
				}
				if !slices.IsSorted(el.IDs) {
					t.Errorf("row %d %s: element %d ids not sorted: %v", r, name, i+1, el.IDs)
				}
				union = append(union, el.IDs...)
			}
			slices.Sort(union)
			if !slices.Equal(union, obj.Members()) {
				t.Errorf("row %d %s: elements cover %v, members are %v", r, name, union, obj.Members())
			}
			if rendered[r][name] != obj.Render() {
				t.Errorf("row %d %s: rendered %q, object renders %q", r, name, rendered[r][name], obj.Render())
			}
		}
	}
}
