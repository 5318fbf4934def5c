package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insightnotes/internal/types"
	"insightnotes/internal/zoomin"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mustExec runs a statement that must succeed.
func mustExec(t *testing.T, db *DB, stmt string) *Result {
	t.Helper()
	res, err := db.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return res
}

// birdDB builds the demo schema: birds plus a trained four-class
// classifier, a cluster instance, and a snippet instance, all linked.
func birdDB(t *testing.T) *DB {
	t.Helper()
	db := testDB(t)
	script := `
	CREATE TABLE birds (id INT, name TEXT, sci_name TEXT, wingspan FLOAT);
	INSERT INTO birds VALUES
		(1, 'Swan Goose', 'Anser cygnoides', 1.8),
		(2, 'Mute Swan', 'Cygnus olor', 2.2),
		(3, 'Whooper Swan', 'Cygnus cygnus', 2.3);
	CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier
		LABELS ('Behavior', 'Disease', 'Anatomy', 'Other');
	TRAIN SUMMARY ClassBird1
		('found eating stonewort near the shore', 'Behavior'),
		('observed feeding at dawn in flocks', 'Behavior'),
		('signs of avian influenza infection', 'Disease'),
		('lesions suggest avian pox virus', 'Disease'),
		('wingspan measured at 1.8 meters', 'Anatomy'),
		('large body long neck orange bill', 'Anatomy'),
		('photo attached from trail camera', 'Other'),
		('see the linked wikipedia article', 'Other');
	CREATE SUMMARY INSTANCE SimCluster TYPE Cluster WITH (threshold = 0.3);
	CREATE SUMMARY INSTANCE TextSummary1 TYPE Snippet WITH (sentences = 2);
	LINK SUMMARY ClassBird1 TO birds;
	LINK SUMMARY SimCluster TO birds;
	LINK SUMMARY TextSummary1 TO birds;
	`
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDDLAndInsertAndSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	res := mustExec(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if res.Count != 2 {
		t.Fatalf("inserted = %d", res.Count)
	}
	res = mustExec(t, db, "SELECT a, b FROM t WHERE a > 1")
	if len(res.Rows) != 1 || res.Rows[0].Tuple[1].Str() != "y" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.QID == 0 {
		t.Error("SELECT did not receive a QID")
	}
	// Consecutive queries get distinct QIDs.
	res2 := mustExec(t, db, "SELECT a FROM t")
	if res2.QID == res.QID {
		t.Error("QIDs not unique")
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	for _, bad := range []string{
		"SELECT a FROM missing",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO missing VALUES (1)",
		"not sql at all",
		"ZOOMIN REFERENCE QID 12345 ON x INDEX 1",
		"SHOW ANNOTATIONS ON missing",
		"TRAIN SUMMARY missing ('a','b')",
		"LINK SUMMARY missing TO alsoMissing",
	} {
		if _, err := db.Exec(context.Background(), bad); err == nil {
			t.Errorf("Exec(%q) succeeded", bad)
		}
	}
	// INSERT with column references is rejected.
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if _, err := db.Exec(context.Background(), "INSERT INTO t VALUES (someColumn)"); err == nil {
		t.Error("non-constant INSERT accepted")
	}
}

func TestAnnotateMaintainsSummaries(t *testing.T) {
	db := birdDB(t)
	res := mustExec(t, db,
		`ADD ANNOTATION 'found eating stonewort and grasses' AUTHOR 'watcher1'
		 ON birds WHERE name = 'Swan Goose'`)
	if res.Count != 1 {
		t.Fatalf("annotated %d tuples", res.Count)
	}
	env := db.StoredEnvelope("birds", 1)
	if env == nil {
		t.Fatal("no envelope maintained")
	}
	cls := env.Object("ClassBird1")
	if cls == nil || cls.Len() != 1 {
		t.Fatalf("classifier object = %v", cls)
	}
	if !strings.Contains(cls.Render(), "(Behavior, 1)") {
		t.Errorf("Render = %q", cls.Render())
	}
	if env.Object("SimCluster") == nil {
		t.Error("cluster object missing")
	}
	// Text-only annotation contributes nothing to the snippet instance.
	if env.Object("TextSummary1") != nil {
		t.Error("snippet object created for non-document annotation")
	}
}

func TestAnnotateColumnsAndNoMatch(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'size seems wrong' ON birds (wingspan) WHERE id = 1")
	env := db.StoredEnvelope("birds", 1)
	anns := env.Annotations()
	if len(anns) != 1 {
		t.Fatalf("annotations = %v", anns)
	}
	// Coverage is just the wingspan column (ordinal 3).
	if !env.Cover[anns[0]].Has(3) || env.Cover[anns[0]].Count() != 1 {
		t.Errorf("coverage = %v", env.Cover[anns[0]])
	}
	if _, err := db.Exec(context.Background(), "ADD ANNOTATION 'x' ON birds WHERE id = 99"); err == nil {
		t.Error("no-match annotation accepted")
	}
	if _, err := db.Exec(context.Background(), "ADD ANNOTATION 'x' ON birds (nope) WHERE id = 1"); err == nil {
		t.Error("bad column accepted")
	}
}

func TestDocumentAnnotationProducesSnippet(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, `ADD ANNOTATION 'reference article'
		TITLE 'Wikipedia: Swan Goose'
		DOCUMENT 'The swan goose is a large goose. It breeds in Mongolia. It eats stonewort in lakes. The species was described in 1758.'
		ON birds WHERE id = 1`)
	env := db.StoredEnvelope("birds", 1)
	snp := env.Object("TextSummary1")
	if snp == nil || snp.Len() != 1 {
		t.Fatalf("snippet object = %v", snp)
	}
	if !strings.Contains(snp.Render(), "Wikipedia: Swan Goose") {
		t.Errorf("Render = %q", snp.Render())
	}
}

func TestQueryPropagatesSummaries(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'observed feeding in flocks' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'avian influenza suspected' ON birds WHERE id = 1")
	res := mustExec(t, db, "SELECT name, wingspan FROM birds WHERE id = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	env := res.Rows[0].Env
	if env == nil {
		t.Fatal("query result lost summaries")
	}
	cls := env.Object("ClassBird1")
	if cls.Len() != 2 {
		t.Errorf("propagated members = %d", cls.Len())
	}
}

func TestSummarizeOnceOptimization(t *testing.T) {
	db := birdDB(t)
	cls, _ := db.Catalog().Instance("ClassBird1")
	cls.ResetStats()
	// One annotation attached to all three tuples: the classifier must be
	// invoked once, not three times (E5's mechanism).
	mustExec(t, db, "ADD ANNOTATION 'migration route confirmed by tracking' ON birds")
	if got := cls.SummarizeCalls(); got != 1 {
		t.Errorf("SummarizeCalls = %d, want 1 (summarize-once)", got)
	}
	for row := types.RowID(1); row <= 3; row++ {
		env := db.StoredEnvelope("birds", row)
		if env == nil || env.Object("ClassBird1").Len() != 1 {
			t.Errorf("row %d missing the shared annotation's summary", row)
		}
	}
}

func TestSummarizeOnceDisabledAblation(t *testing.T) {
	db, err := Open(Config{CacheDir: t.TempDir(), DisableSummarizeOnce: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecScript(context.Background(), `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2), (3);
		CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('x', 'y');
		TRAIN SUMMARY C ('left side', 'x'), ('right side', 'y');
		LINK SUMMARY C TO t;
	`); err != nil {
		t.Fatal(err)
	}
	in, _ := db.Catalog().Instance("C")
	in.ResetStats()
	mustExec(t, db, "ADD ANNOTATION 'left side note' ON t")
	if got := in.SummarizeCalls(); got != 3 {
		t.Errorf("SummarizeCalls = %d, want 3 with summarize-once disabled", got)
	}
}

func TestLinkBackfillsAndUnlinkRemoves(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'wingspan larger than reported' ON birds WHERE id = 2")
	// A new instance linked later summarizes pre-existing annotations.
	mustExec(t, db, "CREATE SUMMARY INSTANCE LateCluster TYPE Cluster WITH (threshold = 0.3)")
	mustExec(t, db, "LINK SUMMARY LateCluster TO birds")
	env := db.StoredEnvelope("birds", 2)
	if env.Object("LateCluster") == nil || env.Object("LateCluster").Len() != 1 {
		t.Fatalf("backfill missing: %v", env.InstanceNames())
	}
	// Unlink removes the instance's objects.
	mustExec(t, db, "UNLINK SUMMARY LateCluster FROM birds")
	env = db.StoredEnvelope("birds", 2)
	if env.Object("LateCluster") != nil {
		t.Error("unlink left objects behind")
	}
	if env.Object("ClassBird1") == nil {
		t.Error("unlink removed other instances' objects")
	}
}

func TestDropSummaryInstanceUnlinksEverywhere(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'note' ON birds WHERE id = 1")
	mustExec(t, db, "DROP SUMMARY INSTANCE SimCluster")
	env := db.StoredEnvelope("birds", 1)
	if env != nil && env.Object("SimCluster") != nil {
		t.Error("dropped instance still has objects")
	}
	if _, err := db.Catalog().Instance("SimCluster"); err == nil {
		t.Error("instance still registered")
	}
}

func TestRebuildSummariesMatchesIncremental(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'found eating stonewort' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'influenza suspected in flock' ON birds WHERE id = 1")
	mustExec(t, db, "ADD ANNOTATION 'large wingspan measured' ON birds (wingspan) WHERE id = 1")
	incr := db.StoredEnvelope("birds", 1)
	steps, err := db.RebuildSummaries("birds")
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("rebuild did nothing")
	}
	rebuilt := db.StoredEnvelope("birds", 1)
	// Classifier and snippet objects must be identical; cluster grouping is
	// stream-order dependent but here insertion order matches.
	if !incr.Object("ClassBird1").Equal(rebuilt.Object("ClassBird1")) {
		t.Errorf("classifier diverged:\n%s\nvs\n%s",
			incr.Object("ClassBird1").Render(), rebuilt.Object("ClassBird1").Render())
	}
	if len(incr.Annotations()) != len(rebuilt.Annotations()) {
		t.Errorf("annotation sets differ: %v vs %v", incr.Annotations(), rebuilt.Annotations())
	}
}

func TestShowStatements(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'note one' ON birds WHERE id = 1")
	res := mustExec(t, db, "SHOW TABLES")
	if len(res.Rows) != 1 || res.Rows[0].Tuple[0].Str() != "birds" {
		t.Fatalf("SHOW TABLES = %v", res.Rows)
	}
	if !strings.Contains(res.Rows[0].Tuple[2].Str(), "ClassBird1") {
		t.Errorf("linked summaries = %q", res.Rows[0].Tuple[2].Str())
	}
	res = mustExec(t, db, "SHOW SUMMARIES")
	if len(res.Rows) != 3 {
		t.Fatalf("SHOW SUMMARIES = %d rows", len(res.Rows))
	}
	res = mustExec(t, db, "SHOW ANNOTATIONS ON birds")
	if len(res.Rows) != 1 || res.Rows[0].Tuple[1].Int() != 1 {
		t.Fatalf("SHOW ANNOTATIONS = %v", res.Rows)
	}
}

func TestQueryTracedLogsStages(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1")
	res, err := db.Query(context.Background(), "SELECT name FROM birds WHERE id = 1", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace entries")
	}
	stages := map[string]bool{}
	foundSummary := false
	for _, e := range res.Trace {
		stages[e.Stage] = true
		if e.Summary != "" {
			foundSummary = true
		}
	}
	if !stages["project"] {
		t.Errorf("stages = %v", stages)
	}
	if !foundSummary {
		t.Error("trace never captured a summary rendering")
	}
}

func TestExplainRendersPlanTree(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "CREATE TABLE sightings (sid INT, bird_id INT)")
	res := mustExec(t, db, `EXPLAIN SELECT b.name, s.sid FROM birds b, sightings s
		WHERE b.id = s.bird_id AND b.wingspan > 1 ORDER BY b.name LIMIT 5`)
	if res.Schema.Columns[0].Name != "plan" {
		t.Fatalf("schema = %v", res.Schema)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, row.Tuple[0].Str())
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"Limit 5", "Sort", "Project+Curate", "HashJoin+MergeSummaries",
		"Filter", "Scan birds AS b", "Scan sightings AS s",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
	// Indentation encodes the tree: the scans are deeper than the join.
	for _, l := range lines {
		if strings.Contains(l, "HashJoin") && !strings.HasPrefix(l, "    ") {
			t.Errorf("join at wrong depth: %q", l)
		}
	}
	// EXPLAIN of a summary-predicate query shows the SummaryFilter stage.
	res = mustExec(t, db, "EXPLAIN SELECT id FROM birds WHERE SUMMARY_TOTAL(ClassBird1) > 0")
	found := false
	for _, row := range res.Rows {
		if strings.Contains(row.Tuple[0].Str(), "SummaryFilter") {
			found = true
		}
	}
	if !found {
		t.Error("summary-predicate plan missing SummaryFilter stage")
	}
	// EXPLAIN of non-SELECT is rejected.
	if _, err := db.Exec(context.Background(), "EXPLAIN INSERT INTO birds VALUES (9, 'x', 'y', 1)"); err == nil {
		t.Error("EXPLAIN INSERT accepted")
	}
}

func TestCacheMissReexecutesQuery(t *testing.T) {
	// A cache too small for any result: every zoom-in re-executes.
	db := zoomDB(t, Config{CacheDir: t.TempDir(), CacheBudget: 1})
	res := mustExec(t, db, "SELECT a FROM t")
	zoom, hit, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "C", Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("impossible cache hit with 1-byte budget")
	}
	if len(zoom) != 1 || len(zoom[0].Annotations) != 1 {
		t.Fatalf("zoom = %+v", zoom)
	}
	if zoom[0].Annotations[0].Text != "alpha text here" {
		t.Errorf("annotation = %q", zoom[0].Annotations[0].Text)
	}
}

// zoomDB is a one-row table with a linked classifier and one annotation
// under label 1, so a zoom-in on any SELECT over it returns that annotation.
func zoomDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecScript(context.Background(), `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('x', 'y');
		TRAIN SUMMARY C ('alpha text', 'x'), ('beta text', 'y');
		LINK SUMMARY C TO t;
		ADD ANNOTATION 'alpha text here' ON t;
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

// A SELECT whose result the cache cannot store still returns its rows and
// a QID, and a zoom-in on that QID re-executes.
func TestSelectSurvivesCacheWriteFailure(t *testing.T) {
	db := zoomDB(t, Config{CacheDir: t.TempDir()})
	defer db.Close()
	db.Cache().Close() // every spill write fails from here on
	res, err := db.Exec(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatalf("SELECT failed over a cache write: %v", err)
	}
	if res.QID == 0 || len(res.Rows) != 1 {
		t.Fatalf("QID %d, %d row(s)", res.QID, len(res.Rows))
	}
	if st := db.Cache().Stats(); st.Rejected != 1 || st.Puts != 0 || db.Cache().Contains(res.QID) {
		t.Errorf("cache stats %+v", st)
	}
	zoom, hit, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "C", Index: 1})
	if err != nil || hit || len(zoom) != 1 {
		t.Fatalf("zoom = %+v, hit=%v, err=%v", zoom, hit, err)
	}
}

// A QID that fell out of the bounded registry and out of the cache fails
// with its own error, not "unknown QID".
func TestZoomInExpiredQID(t *testing.T) {
	db := zoomDB(t, Config{CacheDir: t.TempDir(), CacheBudget: 1})
	defer db.Close()
	res := mustExec(t, db, "SELECT a FROM t")
	// The QID 65 536 later takes the same registry slot.
	db.Cache().Put(&zoomin.CachedResult{QID: res.QID + 1<<16, SQL: "SELECT a FROM t"})
	_, _, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "C", Index: 1})
	if !errors.Is(err, zoomin.ErrQIDExpired) {
		t.Errorf("zoom-in on an expired QID: %v", err)
	}
	_, _, err = db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID + 1, Instance: "C", Index: 1})
	if err == nil || errors.Is(err, zoomin.ErrQIDExpired) || !strings.Contains(err.Error(), "unknown QID") {
		t.Errorf("zoom-in on a QID never issued: %v", err)
	}
}

// Close removes the cache directory Open created, and only that one.
func TestCloseRemovesOnlyItsOwnCacheDir(t *testing.T) {
	owned := zoomDB(t, Config{})
	dir := owned.cfg.CacheDir
	if !strings.HasPrefix(filepath.Base(dir), "insightnotes-cache-") {
		t.Fatalf("default cache dir = %q", dir)
	}
	mustExec(t, owned, "SELECT a FROM t")
	if err := owned.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("engine-created cache dir survives Close: %v", err)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "theirs.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	supplied := zoomDB(t, Config{CacheDir: dir})
	mustExec(t, supplied, "SELECT a FROM t")
	if err := supplied.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil || len(left) != 1 || left[0].Name() != "theirs.txt" {
		t.Errorf("user-supplied cache dir after Close: %v, %v; want only theirs.txt", left, err)
	}
}

func TestDBWithLRUPolicy(t *testing.T) {
	db, err := Open(Config{CacheDir: t.TempDir(), CachePolicy: zoomin.LRU{}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Cache().PolicyName() != "LRU" {
		t.Errorf("policy = %q", db.Cache().PolicyName())
	}
}

func TestSummaryBytesTracksStore(t *testing.T) {
	db := birdDB(t)
	if db.SummaryBytes("birds") != 0 {
		t.Error("empty store has bytes")
	}
	mustExec(t, db, "ADD ANNOTATION 'feeding observed at the lake' ON birds")
	if db.SummaryBytes("birds") <= 0 {
		t.Error("SummaryBytes did not grow")
	}
}

func TestInstanceFromStatementValidation(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	for _, bad := range []string{
		"CREATE SUMMARY INSTANCE c TYPE Histogram",
		"CREATE SUMMARY INSTANCE c TYPE Classifier",                     // no labels
		"CREATE SUMMARY INSTANCE c TYPE Cluster WITH (threshold = 2.0)", // bad threshold
		"CREATE SUMMARY INSTANCE c TYPE Snippet WITH (sentences = 0)",   // bad sentences
	} {
		if _, err := db.Exec(context.Background(), bad); err == nil {
			t.Errorf("Exec(%q) succeeded", bad)
		}
	}
	// Duplicate instance names rejected.
	mustExec(t, db, "CREATE SUMMARY INSTANCE ok TYPE Cluster")
	if _, err := db.Exec(context.Background(), "CREATE SUMMARY INSTANCE ok TYPE Cluster"); err == nil {
		t.Error("duplicate instance accepted")
	}
}

func TestMultiTableAnnotationScopedPerTable(t *testing.T) {
	db := testDB(t)
	if _, err := db.ExecScript(context.Background(), `
		CREATE TABLE a (x INT);
		CREATE TABLE b (x INT);
		INSERT INTO a VALUES (1);
		INSERT INTO b VALUES (1);
		CREATE SUMMARY INSTANCE C TYPE Cluster;
		LINK SUMMARY C TO a;
		ADD ANNOTATION 'only on a' ON a;
	`); err != nil {
		t.Fatal(err)
	}
	if db.StoredEnvelope("a", 1) == nil {
		t.Error("annotation missing on a")
	}
	if db.StoredEnvelope("b", 1) != nil {
		t.Error("annotation leaked to b")
	}
}
