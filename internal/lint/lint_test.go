package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const (
	metricCatalog    = "internal/metrics/names.go"
	failpointCatalog = "internal/failpoint/names.go"
	spanCatalog      = "internal/trace/names.go"
)

var (
	metricShape = regexp.MustCompile(`^insightnotes_[a-z0-9_]+$`)
	// The <layer> segment comes from this list, so a typo'd family
	// (insightnotes_replication_* beside insightnotes_repl_*) or an
	// unreviewed new layer fails here instead of fragmenting dashboards.
	// Extend it deliberately.
	metricScheme = regexp.MustCompile(`^insightnotes_(engine|summary|exec|bufferpool|plan|plancache|zoomin|server|admission|wal|maintenance|trace|build|process|repl|integrity)_[a-z][a-z0-9_]*$`)

	failpointShape = regexp.MustCompile(`^fp/[a-z0-9_/]+$`)

	// Span names are <layer>.<step>; a prefix constant may end in a bare
	// dot (op.).
	spanScheme = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.([a-z][a-z0-9_]*)?)?$`)
	spanCalls  = []string{"StartSpan", "Child", "AddChild"}
)

// tree parses the repository's non-test code plus extra synthetic files
// (path, content pairs).
func tree(t *testing.T, extra ...string) *Sources {
	t.Helper()
	var s Sources
	if err := s.ParseTree("../../internal", "../../cmd"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(extra); i += 2 {
		if err := s.Parse(extra[i], extra[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return &s
}

// expect checks that problems are exactly the ones containing each of
// want, in any order; with no want, that there are none.
func expect(t *testing.T, problems []string, want ...string) {
	t.Helper()
	for _, p := range problems {
		found := false
		for _, w := range want {
			found = found || strings.Contains(p, w)
		}
		if !found {
			t.Error(p)
		}
	}
	for _, w := range want {
		if !strings.Contains(strings.Join(problems, "\n"), w) {
			t.Errorf("not reported: %s", w)
		}
	}
}

// Every insightnotes_* literal in non-test code is declared in
// internal/metrics/names.go, and every declared name follows
// insightnotes_<layer>_<name> with a known layer — the metric taxonomy
// stays reviewable in one file, and a rename that skips it fails here.
func TestMetricNames(t *testing.T) {
	s := tree(t)
	if len(s.Declared(metricCatalog)) == 0 {
		t.Fatal("no declarations found in " + metricCatalog)
	}
	expect(t, s.Undeclared(metricShape, metricCatalog))
	expect(t, s.Malformed(metricScheme, metricCatalog))

	bad := tree(t,
		"internal/x/x.go", `package x; var n = "insightnotes_exec_bogus_total"`,
		"fake/"+metricCatalog, `package metrics; const A, B = "insightnotes_replication_lag", "insightnotes_engine"`)
	expect(t, bad.Undeclared(metricShape, metricCatalog), `"insightnotes_exec_bogus_total" is not declared`)
	expect(t, bad.Malformed(metricScheme, metricCatalog),
		`"insightnotes_replication_lag" violates`, `"insightnotes_engine" violates`)
}

// Every fp/* literal in non-test code is declared in
// internal/failpoint/names.go: the declarations are the catalog the
// crash-recovery suite iterates over, so an inline literal would be a
// crash site with no fault-injection coverage.
func TestFailpointNames(t *testing.T) {
	s := tree(t)
	if len(s.Declared(failpointCatalog)) == 0 {
		t.Fatal("no declarations found in " + failpointCatalog)
	}
	expect(t, s.Undeclared(failpointShape, failpointCatalog))

	bad := tree(t, "internal/x/x.go", `package x; func f() { eval("fp/wal/bogus") }`)
	expect(t, bad.Undeclared(failpointShape, failpointCatalog), `"fp/wal/bogus" is not declared`)
}

// Span call sites outside internal/trace use the trace.Span* constants
// (or trace.OpSpan), never an inline literal — a span opened with one
// would add vocabulary nobody can find — and every name declared in
// internal/trace/names.go follows <layer>.<step>.
func TestSpanNames(t *testing.T) {
	s := tree(t)
	if len(s.Declared(spanCatalog)) == 0 {
		t.Fatal("no declarations found in " + spanCatalog)
	}
	expect(t, s.InlineCallNames(spanCalls, "internal/trace/"))
	expect(t, s.Malformed(spanScheme, spanCatalog))

	bad := tree(t,
		"internal/x/x.go", `package x; func f() { sp.Child("engine.inline").End() }`,
		"fake/"+spanCatalog, `package trace; const SpanBad = "Stmt.Parse.extra"`)
	expect(t, bad.InlineCallNames(spanCalls, "internal/trace/"), `Child("engine.inline")`)
	expect(t, bad.Malformed(spanScheme, spanCatalog), `"Stmt.Parse.extra" violates`)
}

// The engine's lock protocol lives in one function. A statement or a
// programmatic mutator takes the statement lock exclusively, and waits for
// its WAL record's commit fsync after releasing it, only through DB.commit;
// a mutator that copied those steps could get their order wrong — fsync
// under the lock, a staged record nobody waits for. The other holders of
// the exclusive lock are listed here: replica apply stages a whole shipped
// batch before one fsync, snapshot install swaps the whole state, and the
// integrity paths rewrite pages, not logical state.
func TestCommitShellIsTheOnlyOne(t *testing.T) {
	const engine = "internal/engine/"
	lockers := []string{"commit", "ApplyReplicated", "InstallReplicaSnapshot", "repairFaults", "repairIndexes", "FlushPages"}
	s := tree(t)
	expect(t, s.CallsOutside(engine, "stmtMu.Lock", lockers...))
	expect(t, s.CallsOutside(engine, "syncWAL", "commit", "ApplyReplicated"))
	expect(t, s.CallsOutside(engine, "wal.Sync", "syncWAL"))

	bad := tree(t, engine+"x.go", `package engine
func (db *DB) Eighth() error {
	db.stmtMu.Lock()
	tok := db.takePendingSync()
	db.stmtMu.Unlock()
	go func() { db.wal.Sync(tok) }()
	return db.syncWAL(tok)
}`)
	expect(t, bad.CallsOutside(engine, "stmtMu.Lock", lockers...), "Eighth calls stmtMu.Lock")
	expect(t, bad.CallsOutside(engine, "syncWAL", "commit", "ApplyReplicated"), "Eighth calls syncWAL")
	expect(t, bad.CallsOutside(engine, "wal.Sync", "syncWAL"), "Eighth calls wal.Sync")
}

// The zoom-in cache keeps every result in one spill file that is opened
// once: a statement's Put and Get are a positional write and read on that
// handle. Creating, reading whole or removing a file belongs to the
// cache's lifecycle and to compaction only, so a per-statement file
// create or unlink — the cost this layout exists to avoid — fails here.
func TestZoominFileCallsStayOffTheStatementPath(t *testing.T) {
	const zoomin = "internal/zoomin/"
	fileCalls := []string{"os.WriteFile", "os.Create", "os.OpenFile", "os.Remove", "os.ReadFile"}
	lifecycle := []string{"NewCache", "compact", "Close", "Clear"}
	s := tree(t)
	for _, call := range fileCalls {
		expect(t, s.CallsOutside(zoomin, call, lifecycle...))
	}

	bad := tree(t, zoomin+"x.go", `package zoomin
func (c *Cache) Put(r *CachedResult) error {
	return os.WriteFile(c.path(r.QID), nil, 0o644)
}
func (c *Cache) evictOne() { os.Remove(c.path(0)) }`)
	expect(t, bad.CallsOutside(zoomin, "os.WriteFile", lifecycle...), "Put calls os.WriteFile")
	expect(t, bad.CallsOutside(zoomin, "os.Remove", lifecycle...), "evictOne calls os.Remove")
}

// A test that opens an engine with no CacheDir and never closes it leaves
// an insightnotes-cache-* directory in the temp dir on every run. Each test
// package has a helper that sets CacheDir from t.TempDir() and closes the
// DB in t.Cleanup; an opener outside it must do one or the other itself.
// benchmark/ keeps its data under its own -dir and is not parsed.
func TestTestsDoNotLeakCacheDirs(t *testing.T) {
	var s Sources
	if err := s.ParseTests("../../internal", "../../cmd", "../../examples"); err != nil {
		t.Fatal(err)
	}
	roots, err := filepath.Glob("../../*_test.go")
	if err != nil || len(roots) == 0 {
		t.Fatalf("root package tests: %v, %v", roots, err)
	}
	for _, root := range roots {
		if err := s.Parse(root, nil); err != nil {
			t.Fatal(err)
		}
	}
	expect(t, s.LeakyOpens())

	var bad Sources
	if err := bad.Parse("internal/x/x_test.go", `package x
func TestLeaks(t *testing.T) { db := engine.MustOpen(engine.Config{PoolFrames: 8}); _ = db }
func TestDurableLeaks(t *testing.T) { engine.OpenDurable(engine.Config{}, engine.DurabilityOptions{Dir: t.TempDir()}) }
func TestSetsCacheDir(t *testing.T) { engine.Open(engine.Config{CacheDir: t.TempDir()}) }
func TestUsesHelperConfig(t *testing.T) { engine.Open(testConfig(t)) }
func ExampleCloses() { db := insightnotes.MustOpen(insightnotes.Config{}); defer db.Close() }
func TestOtherOpen(t *testing.T) { wal.Open("x", 0); os.Open("y") }
func TestThroughHelperLeaks(t *testing.T) { fixture(t, engine.Config{}) }
func TestThroughHelper(t *testing.T) { fixture(t, engine.Config{CacheDir: t.TempDir()}) }
func fixture(t *testing.T, cfg engine.Config) *engine.DB { return engine.MustOpen(cfg) }`); err != nil {
		t.Fatal(err)
	}
	expect(t, bad.LeakyOpens(), "TestLeaks opens an engine", "TestDurableLeaks opens an engine", "TestThroughHelperLeaks opens an engine")
}

// The examples are programs, not tests: each opens an engine with the
// default Config, so each must Close it or leave its zoom-in spill
// directory behind on every run.
func TestExamplesCloseTheirEngines(t *testing.T) {
	var s Sources
	if err := s.ParseTree("../../examples"); err != nil {
		t.Fatal(err)
	}
	expect(t, s.LeakyOpens())

	var bad Sources
	if err := bad.Parse("examples/x/main.go", `package main
func main() { db, _ := insightnotes.Open(insightnotes.Config{}); db.Exec(ctx, "CHECKPOINT") }`); err != nil {
		t.Fatal(err)
	}
	expect(t, bad.LeakyOpens(), "main opens an engine")
}

// Envelopes are copy-on-write: a scan hands out views that share the
// stored envelope's Cover and Objects maps, and only the summary package's
// mutators know to copy a shared map (and clone a shared object) before
// writing. A direct write anywhere else would reach through a view into
// the store, or into another statement's result. internal/baseline keeps
// raw annotations in a Row.Cover of its own; it is a different type.
func TestEnvelopeMapsAreWrittenOnlyBySummary(t *testing.T) {
	fields := []string{"Cover", "Objects"}
	owners := []string{"internal/summary/", "internal/baseline/"}
	s := tree(t)
	if err := s.ParseTree("../../examples", "../../benchmark"); err != nil {
		t.Fatal(err)
	}
	expect(t, s.FieldWrites(fields, owners...))

	bad := tree(t, "internal/x/x.go", `package x
func f(env *summary.Envelope, row *exec.Row) {
	env.Cover[7] = annotation.Col(0)
	delete(row.Env.Objects, "C")
	row.Env.Objects["C"], n = obj, 1
	env.Cover = nil
	_ = env.Cover[7]
	for range env.Objects {}
}`, "internal/summary/y.go", `package summary
func (e *Envelope) g() { e.Cover[7] = 0 }`)
	expect(t, bad.FieldWrites(fields, owners...), "x.go:3:2: writes", "x.go:4:9: writes", "x.go:5:2: writes", "x.go:6:2: writes")
}

// Every `make <target>` the documentation tells a reader to run names a
// target the Makefile declares, so deleting a target cannot leave stale
// instructions behind.
func TestDocumentedMakeTargetsExist(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile("../../" + path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	makefile := read("Makefile")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmark/README.md", ".claude/skills/verify/SKILL.md"} {
		expect(t, StaleMakeTargets(makefile, doc, read(doc)))
	}
	expect(t, StaleMakeTargets(makefile, "x.md", "run `make check`, then `make fuzz FUZZTIME=3s` and `make bench-everything soak`"),
		"`make bench-everything` names no Makefile target")
}
