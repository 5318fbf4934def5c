package insightnotes_test

// The paper's claims E1–E8 (DESIGN.md's experiment index, EXPERIMENTS.md),
// one test each. The paper is a demonstration without result tables, so a
// claim is a shape — who wins, what stays flat, what grows — and each test
// asserts its shape on quantities that repeat exactly: bytes, classifier
// invocations, cache hits, envelope equality. None compares two durations.
// `go test -run 'TestE[1-8]' -v .` prints the numbers behind each verdict.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"insightnotes"
	"insightnotes/internal/annotation"
	"insightnotes/internal/baseline"
	"insightnotes/internal/exec"
	"insightnotes/internal/metrics"
	"insightnotes/internal/plan"
	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

// spjQuery is the Figure 2 query shape on the generated corpus: project,
// select, join-merge, final project.
const spjQuery = "SELECT b.name, b.wingspan, s.region FROM birds b, sightings s " +
	"WHERE b.id = s.bird_id AND s.cnt > 5"

// spjWorld is annotated birds joined with sightings. Each bird carries
// annsPerTuple whole-row annotations; on top of that both relations carry a
// fixed set of column-scoped annotations — some on columns spjQuery
// projects out, some shared between a bird and its sightings — so curation
// drops members and the join's merge has double counting to avoid. All but
// the bird annotations come from their own generator: worlds that differ
// in annsPerTuple hold the same data rows.
func spjWorld(t *testing.T, birds, annsPerTuple int) *insightnotes.DB {
	t.Helper()
	db := openWith(t, insightnotes.Config{})
	if _, err := populate.Birds(db, workload.New(1234), populate.BirdCorpusSpec{
		Tuples: birds, AnnotationsPerTuple: annsPerTuple, DocumentFraction: 0.02, TrainPerClass: 8,
	}); err != nil {
		t.Fatal(err)
	}
	run(t, db, "CREATE TABLE sightings (sid INT, bird_id INT, region TEXT, cnt INT)")
	g := workload.New(4321)
	for i := 0; i < 2*birds; i++ {
		run(t, db, fmt.Sprintf("INSERT INTO sightings VALUES (%d, %d, '%s', %d)",
			i+1, i%birds+1, g.Region(), g.Intn(40)+1))
	}
	for _, in := range db.Catalog().InstancesFor("birds") {
		run(t, db, "LINK SUMMARY "+in.Name+" TO sightings")
	}
	scopes := []string{"birds (sci_name) WHERE id", "birds (name, region) WHERE id",
		"sightings (region) WHERE bird_id", "sightings (sid, cnt) WHERE bird_id"}
	for i := 0; i < 6*birds; i++ {
		bird := i%birds + 1
		run(t, db, fmt.Sprintf("ADD ANNOTATION '%s' ON %s = %d", g.ClassText(workload.BirdClasses[i%4]), scopes[i%4], bird))
		if i%6 == 0 {
			if _, _, err := db.AnnotateTargets(insightnotes.Annotation{Text: g.ClassText("Disease")}, []insightnotes.TargetSpec{
				{Table: "birds", Columns: []string{"name"}, Where: intCmp("id", "=", bird)},
				{Table: "sightings", Columns: []string{"region"}, Where: intCmp("bird_id", "=", bird)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// intCmp builds the predicate `col op n` for programmatic annotation scopes.
func intCmp(col, op string, n int) sql.Expr {
	return &sql.BinaryExpr{Op: op, L: &sql.ColRef{Name: col}, R: &sql.Literal{Val: types.NewInt(int64(n))}}
}

// query runs q under plan options and returns the rows ordered by data
// tuple, so equivalent plans can be compared row by row. Rows with equal
// tuples come from the same bird and carry equal summaries.
func query(t *testing.T, db *insightnotes.DB, q string, opts plan.Options) []*exec.Row {
	t.Helper()
	res, err := db.Query(context.Background(), q, insightnotes.WithPlanOptions(opts))
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i].Tuple.String() < res.Rows[j].Tuple.String() })
	return res.Rows
}

func summaryBytes(rows []*exec.Row) (n int64) {
	for _, r := range rows {
		if r.Env != nil {
			n += int64(r.Env.ApproxBytes())
		}
	}
	return n
}

func sameTuples(a, b []*exec.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Tuple.EqualOn(b[i].Tuple, nil) {
			return false
		}
	}
	return true
}

// takeSummarizeCalls sums the classifier/cluster/snippet invocations of the
// instances linked to birds and zeroes the counters.
func takeSummarizeCalls(db *insightnotes.DB) (n int64) {
	for _, in := range db.Catalog().InstancesFor("birds") {
		n += in.SummarizeCalls()
		in.ResetStats()
	}
	return n
}

// E1 (Figure 1, §1): summaries are smaller than the raw annotations and the
// gap widens with the annotation-to-data ratio (DataBank 30×, HydroEarth
// 120×, AKN 250×), under uniform and Zipf-skewed volume.
func TestE1Compression(t *testing.T) {
	for _, skew := range []float64{0, 1.5} {
		prev := 0.0
		for _, ratio := range []int{30, 120, 250} {
			db := openWith(t, insightnotes.Config{})
			n, err := populate.Birds(db, workload.New(42), populate.BirdCorpusSpec{
				Tuples: 8, AnnotationsPerTuple: ratio, DocumentFraction: 0.05, TrainPerClass: 8, ZipfSkew: skew,
			})
			if err != nil {
				t.Fatal(err)
			}
			raw, sum := db.Annotations().RawBytes(), db.SummaryBytes("birds")
			compression := float64(raw) / float64(sum)
			t.Logf("E1 ratio=%d× zipf=%v: %d annotations, raw %d B, summaries %d B, compression %.2f×",
				ratio, skew, n, raw, sum, compression)
			if compression <= 1 {
				t.Errorf("ratio %d× zipf=%v: summaries (%d B) not smaller than raw annotations (%d B)", ratio, skew, sum, raw)
			}
			if compression < prev {
				t.Errorf("ratio %d× zipf=%v: compression fell from %.2f× to %.2f× as the ratio grew", ratio, skew, prev, compression)
			}
			prev = compression
		}
	}
}

// E2 (Figure 2): the SPJ pipeline propagates summaries, not raw
// annotations. The annotation store has no read counter, so the test
// asserts the observable consequence: with 16× the annotations per tuple
// the query returns the same rows, and the bytes it propagates grow by less
// than the raw bytes did.
func TestE2SPJPropagation(t *testing.T) {
	small, large := spjWorld(t, 8, 4), spjWorld(t, 8, 64)
	rowsS, rowsL := query(t, small, spjQuery, plan.Options{}), query(t, large, spjQuery, plan.Options{})
	if len(rowsS) == 0 || !sameTuples(rowsS, rowsL) {
		t.Fatalf("annotation volume changed the data rows: %d vs %d", len(rowsS), len(rowsL))
	}
	rawS, rawL := small.Annotations().RawBytes(), large.Annotations().RawBytes()
	sumS, sumL := summaryBytes(rowsS), summaryBytes(rowsL)
	rawGrowth, sumGrowth := float64(rawL)/float64(rawS), float64(sumL)/float64(sumS)
	t.Logf("E2 %d rows at 4 and 64 annotations/tuple: raw %d → %d B (%.1f×), propagated summaries %d → %d B (%.1f×)",
		len(rowsS), rawS, rawL, rawGrowth, sumS, sumL, sumGrowth)
	if sumGrowth >= rawGrowth {
		t.Errorf("propagated summary bytes grew %.1f×, raw annotation bytes %.1f×: not sub-linear", sumGrowth, rawGrowth)
	}
}

// E3 (Theorems 1 & 2): curate-before-merge makes every equivalent plan
// yield identical summaries — here the two FROM orders — and the plan that
// merges first and curates last reports the same summaries too.
func TestE3PlanEquivalence(t *testing.T) {
	db := spjWorld(t, 8, 16)
	reversed := "SELECT b.name, b.wingspan, s.region FROM sightings s, birds b " +
		"WHERE b.id = s.bird_id AND s.cnt > 5"
	base := query(t, db, spjQuery, plan.Options{})
	compared := 0
	for name, rows := range map[string][]*exec.Row{
		"S ⋈ R":                    query(t, db, reversed, plan.Options{}),
		"R ⋈ S, merge then curate": query(t, db, spjQuery, plan.Options{DisableProjectionPushdown: true}),
	} {
		if !sameTuples(base, rows) {
			t.Fatalf("%s: data rows differ from R ⋈ S", name)
		}
		for i := range base {
			if base[i].Env == nil || rows[i].Env == nil {
				t.Fatalf("%s: row %v carries no summary", name, base[i].Tuple)
			}
			if !base[i].Env.Equal(rows[i].Env) {
				t.Errorf("%s: summaries of %v differ from R ⋈ S:\n%s\nvs\n%s",
					name, base[i].Tuple, base[i].Env.Render(), rows[i].Env.Render())
			}
			compared++
		}
	}
	t.Logf("E3 %d rows, %d summary comparisons across FROM orders and curate-before/after-merge: all equal", len(base), compared)
}

// E4 (§1(2), §2.3): maintenance is incremental. Adding an annotation costs
// one summarization per linked instance however large the corpus already
// is; recomputing from scratch costs that for every annotation stored.
func TestE4IncrementalMaintenance(t *testing.T) {
	const tuples = 8
	db := openWith(t, insightnotes.Config{})
	g := workload.New(77)
	if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{Tuples: tuples, TrainPerClass: 8}); err != nil {
		t.Fatal(err)
	}
	instances := int64(len(db.Catalog().InstancesFor("birds")))
	total := 0
	for _, target := range []int{200, 400, 800} {
		takeSummarizeCalls(db)
		added, err := populate.AnnotateBirds(db, g, populate.BirdCorpusSpec{
			Tuples: tuples, AnnotationsPerTuple: (target - total) / tuples, DocumentFraction: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		total += added
		incremental := takeSummarizeCalls(db)
		steps, err := db.RebuildSummaries("birds")
		if err != nil {
			t.Fatal(err)
		}
		rebuild := takeSummarizeCalls(db)
		t.Logf("E4 total=%d: +%d annotations cost %d summarizations (%d each); rebuild cost %d",
			total, added, incremental, incremental/int64(added), rebuild)
		if incremental != instances*int64(added) {
			t.Errorf("total=%d: %d summarizations for %d new annotations, want %d per annotation", total, incremental, added, instances)
		}
		if rebuild != instances*int64(total) || int64(steps) != rebuild {
			t.Errorf("total=%d: rebuild made %d summarizations in %d steps, want %d", total, rebuild, steps, instances*int64(total))
		}
	}

	// One more annotation costs the same allocations, and the same bytes,
	// whatever the row already holds: maintenance appends at the tail of
	// its sorted lists and neither copies nor rehashes them.
	// The statements are formatted up front and the tracer is off, so the
	// window measures the statement path and maintenance alone: under
	// -race, sync.Pool drops fmt's and the tracer's buffers at random.
	adds := make([]string, 20)
	for i := range adds {
		adds[i] = fmt.Sprintf("ADD ANNOTATION '%s' ON birds WHERE id = 1", g.ClassText(workload.BirdClasses[i%len(workload.BirdClasses)]))
	}
	// cost is testing.AllocsPerRun (one warm-up call, then the average
	// over len(adds)-1 calls) reporting bytes beside the allocation count.
	cost := func(held int) (allocs, bytes float64) {
		db := openWith(t, insightnotes.Config{DisableTracing: true})
		if _, err := populate.Birds(db, workload.New(78), populate.BirdCorpusSpec{Tuples: 1, AnnotationsPerTuple: held, TrainPerClass: 8}); err != nil {
			t.Fatal(err)
		}
		// Pad the annotation heap through a second row until it takes a
		// fresh 8 KiB page: the records of the 20 ADDs below fit in it, so
		// no page allocation lands in either row's measured window.
		run(t, db, "INSERT INTO birds VALUES (2, 'pad', 'pad', 'pad', 1.0)")
		pages := len(db.Annotations().Pages())
		for len(db.Annotations().Pages()) == pages {
			run(t, db, "ADD ANNOTATION 'padding' ON birds WHERE id = 2")
		}
		pages = len(db.Annotations().Pages())
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(t, db, adds[0])
		runs := uint64(len(adds) - 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, stmt := range adds[1:] {
			run(t, db, stmt)
		}
		runtime.ReadMemStats(&after)
		if got := len(db.Annotations().Pages()); got != pages {
			t.Fatalf("held=%d: the annotation heap grew from %d to %d pages inside the measured window", held, pages, got)
		}
		return float64((after.Mallocs - before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	small, smallBytes := cost(8)
	large, largeBytes := cost(512)
	t.Logf("E4 one ADD ANNOTATION: %.1f allocations (%.0f B) on a row holding 8 annotations, %.1f (%.0f B) on one holding 512", small, smallBytes, large, largeBytes)
	if large > small*1.1 || large < small*0.9 {
		t.Errorf("one ADD ANNOTATION allocates %.1f times on a row holding 8 annotations, %.1f on one holding 512 (want within ±10%%)", small, large)
	}
	if largeBytes > smallBytes*1.1 || largeBytes < smallBytes*0.9 {
		t.Errorf("one ADD ANNOTATION allocates %.0f B on a row holding 8 annotations, %.0f B on one holding 512 (want within ±10%%)", smallBytes, largeBytes)
	}
}

// E5 (§2.3, Figure 4): under AnnotationInvariant ∧ DataInvariant an
// annotation attached to m tuples is summarized once; with the
// optimization off, m times. Each annotation is attached through two
// scopes (the lower and the upper half of the table), so the second scope
// reuses the digest computed for the first in the same maintenance batch.
func TestE5SummarizeOnce(t *testing.T) {
	const rounds = 10
	for _, m := range []int{4, 16, 64} {
		var calls [2]int64
		for i, disable := range []bool{false, true} {
			db := openWith(t, insightnotes.Config{DisableSummarizeOnce: disable})
			g := workload.New(9)
			if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{Tuples: m, TrainPerClass: 8}); err != nil {
				t.Fatal(err)
			}
			in, err := db.Catalog().Instance("ClassBird1")
			if err != nil {
				t.Fatal(err)
			}
			in.ResetStats()
			for r := 0; r < rounds; r++ {
				_, attached, err := db.AnnotateTargets(insightnotes.Annotation{Text: g.ClassText("Behavior")}, []insightnotes.TargetSpec{
					{Table: "birds", Where: intCmp("id", "<=", m/2)}, {Table: "birds", Where: intCmp("id", ">", m/2)},
				})
				if err != nil || attached != m {
					t.Fatalf("annotation attached to %d tuples, want %d: %v", attached, m, err)
				}
			}
			calls[i] = in.SummarizeCalls() / rounds
			hits := metricValue(db, metrics.NameSummaryDigestHitsTotal)
			if disable == (hits > 0) {
				t.Errorf("m=%d summarize-once disabled=%v: %s = %v", m, disable, metrics.NameSummaryDigestHitsTotal, hits)
			}
		}
		t.Logf("E5 m=%d tuples/annotation: %d classifier call(s) with summarize-once, %d without", m, calls[0], calls[1])
		if calls[0] != 1 || calls[1] != int64(m) {
			t.Errorf("m=%d: classifier calls = %d with summarize-once (want 1), %d without (want %d)", m, calls[0], calls[1], m)
		}
	}
}

func metricValue(db *insightnotes.DB, name string) float64 {
	for _, s := range db.Metrics().Samples() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// E6 (§2.2): under a bounded zoom-in cache RCO keeps expensive,
// re-referenced results where LRU's recency bias evicts them, and no cache
// never hits. The stream is the regime RCO is designed for: a working set
// of join results users keep zooming into, interleaved with bursts of
// one-off cheap queries that are zoomed once — pure pollution.
func TestE6ZoomInCache(t *testing.T) {
	const zoomOps = 400
	// world opens a database under the given cache and issues the working
	// set of expensive joins; it returns their QIDs.
	world := func(policy insightnotes.CachePolicy, budget int64) (*insightnotes.DB, []int) {
		db := openWith(t, insightnotes.Config{CacheBudget: budget, CachePolicy: policy})
		g := workload.New(31)
		if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{
			Tuples: 12, AnnotationsPerTuple: 20, DocumentFraction: 0.05, TrainPerClass: 8,
		}); err != nil {
			t.Fatal(err)
		}
		run(t, db, "CREATE TABLE sightings (sid INT, bird_id INT, cnt INT)")
		for i := 0; i < 24; i++ {
			run(t, db, fmt.Sprintf("INSERT INTO sightings VALUES (%d, %d, %d)", i+1, i%12+1, g.Intn(50)))
		}
		var expensive []int
		for i := 0; i < 6; i++ {
			expensive = append(expensive, run(t, db, fmt.Sprintf(
				"SELECT b.name, s.cnt FROM birds b, sightings s WHERE b.id = s.bird_id AND b.id <= %d", 6+i)).QID)
		}
		return db, expensive
	}
	// The budget holds the working set plus a couple of cheap results, so
	// the pollution bursts force evictions.
	unbounded, _ := world(insightnotes.RCO(), 1<<30)
	workingSet := unbounded.Cache().Stats().UsedBytes
	budget := workingSet + workingSet/8
	hitRate := map[string]float64{}
	for _, c := range []struct {
		name   string
		policy insightnotes.CachePolicy
		budget int64
	}{{"RCO", insightnotes.RCO(), budget}, {"LRU", insightnotes.LRU(), budget}, {"none", insightnotes.RCO(), 1}} {
		db, expensive := world(c.policy, c.budget)
		g := workload.New(95)
		zoom := func(qid int) {
			if _, _, err := db.ZoomIn(context.Background(), insightnotes.ZoomInRequest{
				QID: qid, Instance: "ClassBird1", Index: 1 + g.Intn(4),
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm-up: establish reference frequency on the working set.
		for _, qid := range expensive {
			for k := 0; k < 3; k++ {
				zoom(qid)
			}
		}
		db.Cache().ResetStats()
		for ops, fresh := 0, 0; ops < zoomOps; {
			for k := 0; k < 3 && ops < zoomOps; k, ops, fresh = k+1, ops+1, fresh+1 {
				zoom(run(t, db, fmt.Sprintf("SELECT id, name FROM birds WHERE id <= %d", fresh%10+2)).QID)
			}
			for k := 0; k < 5 && ops < zoomOps; k, ops = k+1, ops+1 {
				zoom(expensive[ops%len(expensive)])
			}
		}
		st := db.Cache().Stats()
		hitRate[c.name] = float64(st.Hits) / float64(st.Hits+st.Misses)
		t.Logf("E6 %s (budget %d B): %d hits, %d misses (%.0f%%), %d evictions",
			c.name, c.budget, st.Hits, st.Misses, 100*hitRate[c.name], st.Evictions)
	}
	if !(hitRate["RCO"] > hitRate["LRU"] && hitRate["LRU"] > hitRate["none"] && hitRate["none"] == 0) {
		t.Errorf("hit rates RCO %.2f, LRU %.2f, none %.2f: want RCO > LRU > none = 0", hitRate["RCO"], hitRate["LRU"], hitRate["none"])
	}
}

// E7 (§2.3): maintenance scales linearly in the number of summary
// instances linked to the relation: k instances, exactly k summarizations
// per annotation.
func TestE7InstanceScalability(t *testing.T) {
	const tuples, perTuple = 8, 10
	for _, k := range []int{1, 2, 4, 8, 16} {
		db := openWith(t, insightnotes.Config{})
		g := workload.New(13)
		if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{Tuples: tuples, SkipInstances: true}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			run(t, db, fmt.Sprintf("CREATE SUMMARY INSTANCE Cluster%02d TYPE Cluster WITH (threshold = 0.3)", i))
			run(t, db, fmt.Sprintf("LINK SUMMARY Cluster%02d TO birds", i))
		}
		added, err := populate.AnnotateBirds(db, g, populate.BirdCorpusSpec{Tuples: tuples, AnnotationsPerTuple: perTuple})
		if err != nil {
			t.Fatal(err)
		}
		calls := takeSummarizeCalls(db)
		t.Logf("E7 instances=%d: %d annotations, %d summarizations (%d per annotation)", k, added, calls, calls/int64(added))
		if calls != int64(k*added) {
			t.Errorf("instances=%d: %d summarizations for %d annotations, want exactly %d× = %d", k, calls, added, k, k*added)
		}
	}
}

// E8 (§1 motivation): propagating raw annotations (internal/baseline, a
// DBNotes-style engine) moves more bytes than propagating summaries, and
// the gap widens with volume. The baseline is also the oracle of ROADMAP
// north-star 3: summarizing what it propagated must give what the engine
// propagated as summaries.
func TestE8SummaryVsRaw(t *testing.T) {
	var prevSum, prevRaw int64
	for _, apt := range []int{8, 32, 128} {
		db := spjWorld(t, 8, apt)
		rows := query(t, db, spjQuery, plan.Options{})
		rawRows, rawBytes := rawSPJ(t, db)
		sumBytes := summaryBytes(rows)
		t.Logf("E8 %d annotations/tuple, %d rows: summaries %d B, raw propagation %d B (%.1f×)",
			apt, len(rows), sumBytes, rawBytes, float64(rawBytes)/float64(sumBytes))
		if rawBytes <= sumBytes {
			t.Errorf("%d annotations/tuple: raw propagation moved %d B, summaries %d B", apt, rawBytes, sumBytes)
		}
		if prevSum > 0 && float64(rawBytes)/float64(prevRaw) <= float64(sumBytes)/float64(prevSum) {
			t.Errorf("%d annotations/tuple: raw bytes grew %d → %d, summary bytes %d → %d: the gap did not widen",
				apt, prevRaw, rawBytes, prevSum, sumBytes)
		}
		prevSum, prevRaw = sumBytes, rawBytes

		if len(rawRows) != len(rows) {
			t.Fatalf("%d annotations/tuple: baseline returned %d rows, engine %d", apt, len(rawRows), len(rows))
		}
		instances := db.Catalog().InstancesFor("birds") // the same three are linked to sightings
		for i, raw := range rawRows {
			if !raw.Tuple.EqualOn(rows[i].Tuple, nil) {
				t.Fatalf("row %d: baseline %v, engine %v", i, raw.Tuple, rows[i].Tuple)
			}
			// Incremental maintenance saw the annotations in id order.
			sort.Slice(raw.Anns, func(a, b int) bool { return raw.Anns[a].ID < raw.Anns[b].ID })
			want := summary.NewEnvelope()
			for _, a := range raw.Anns {
				for _, in := range instances {
					want.Add(in, in.Summarize(a), raw.Cover[a.ID])
				}
			}
			got := rows[i].Env
			if got == nil {
				got = summary.NewEnvelope()
			}
			if !reflect.DeepEqual(coverage(got), coverage(want)) {
				t.Errorf("row %v: engine summarizes annotations %v, the raw propagation carried %v (or their column coverage differs)",
					raw.Tuple, got.Annotations(), want.Annotations())
			}
			for _, in := range instances {
				g, w := got.Object(in.Name), want.Object(in.Name)
				switch {
				case g == nil || w == nil:
					if g != w {
						t.Errorf("row %v: %s object present on one side only", raw.Tuple, in.Name)
					}
				case in.Type == summary.TypeCluster:
					// Cluster groups and their elected representatives depend
					// on the order of adds, removals and merges: the engine
					// clusters per base tuple, then curates and merges groups;
					// the oracle clusters the surviving annotations in one
					// pass. Envelope.Equal therefore does not hold across the
					// two; membership does.
					if fmt.Sprint(g.Members()) != fmt.Sprint(w.Members()) {
						t.Errorf("row %v: %s members %v, summarized raw propagation %v", raw.Tuple, in.Name, g.Members(), w.Members())
					}
				case !g.Equal(w):
					t.Errorf("row %v: %s, summarized raw propagation gives %s", raw.Tuple, g.Render(), w.Render())
				}
			}
		}
	}
}

// rawSPJ runs spjQuery on the raw-propagation baseline: scan birds →
// project (id, name, wingspan) → join sightings filtered on cnt > 5 →
// project (name, wingspan, region). Rows come back ordered like query's.
func rawSPJ(t *testing.T, db *insightnotes.DB) ([]*baseline.Row, int64) {
	t.Helper()
	birds, err := db.Catalog().Table("birds")
	if err != nil {
		t.Fatal(err)
	}
	sightings, err := db.Catalog().Table("sightings")
	if err != nil {
		t.Fatal(err)
	}
	store := db.Annotations()
	left := baseline.NewProject(baseline.NewScan(birds, "b", store), []int{0, 1, 4})
	right := baseline.NewProject(baseline.NewFilter(baseline.NewScan(sightings, "s", store),
		func(tu types.Tuple) (bool, error) { return tu[3].Int() > 5, nil }), []int{1, 2})
	rows, bytes, err := baseline.Collect(baseline.NewProject(baseline.NewHashJoin(left, right, 0, 0), []int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Tuple.String() < rows[j].Tuple.String() })
	return rows, bytes
}

// coverage returns env's coverage as a map, for comparison.
func coverage(env *summary.Envelope) map[annotation.ID]annotation.ColSet {
	out := make(map[annotation.ID]annotation.ColSet, env.Len())
	env.EachCover(func(id annotation.ID, cols annotation.ColSet) { out[id] = cols })
	return out
}
