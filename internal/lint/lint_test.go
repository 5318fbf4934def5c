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

// Every Name* constant in internal/metrics/names.go is referenced by some
// non-test file besides names.go: a metric whose code was deleted must
// not leave its name behind in the catalog.
func TestMetricNamesAreUsed(t *testing.T) {
	expect(t, tree(t).Unreferenced(metricCatalog, "Name"))

	bad := tree(t,
		"fake/"+metricCatalog, `package metrics; const (NameUsed = "insightnotes_exec_used_total"; NameGone = "insightnotes_exec_gone_total"; other = 1)`,
		"internal/x/x.go", `package x; var n = metrics.NameUsed`)
	expect(t, bad.Unreferenced(metricCatalog, "Name"), "NameGone is declared but never referenced")
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

// Summary maintenance is one routine, applyTasks: ingest, the catch-up
// worker, LINK backfill, RebuildSummaries, snapshot restore and WAL replay
// all reach Instance.Summarize through it, so summarize-once is decided
// in one place and every path builds the envelopes the others would. A
// second caller — a per-annotation loop beside the batch one — fails here.
func TestSummarizeHasOneCaller(t *testing.T) {
	const engine = "internal/engine/"
	s := tree(t)
	expect(t, s.CallsOutside(engine, "Summarize", "applyTasks"))

	bad := tree(t, engine+"x.go", `package engine
func (db *DB) backfill(in *summary.Instance, a annotation.Annotation) {
	tbl, _ := db.cat.Table("t")
	tbl.Envelope(1).Add(in, in.Summarize(a), 1)
}`)
	expect(t, bad.CallsOutside(engine, "Summarize", "applyTasks"), "backfill calls Summarize")
}

// A mutation resolves its effects into a record, then applies and logs it
// through mutate, the one caller of logRecord: apply first, then stage,
// with apply the code recovery and replicas run on the same record. A
// mutator that staged a record itself could log what it never applied,
// or apply what replay does not.
func TestLogRecordHasOneCaller(t *testing.T) {
	const engine = "internal/engine/"
	s := tree(t)
	expect(t, s.CallsOutside(engine, "logRecord", "mutate"))

	bad := tree(t, engine+"x.go", `package engine
func (db *DB) execRename(from, to string) error {
	if err := db.cat.Rename(from, to); err != nil {
		return err
	}
	return db.logRecord("rename", &walName{Name: to})
}`)
	expect(t, bad.CallsOutside(engine, "logRecord", "mutate"), "execRename calls logRecord")
}

// The zoom-in cache keeps every spilled result in one spill file that is
// opened once: a spill and a Get are a positional write and read on that
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

// Everything durable or shipped — WAL frames and payloads, checkpoints
// with their summary objects and instance models, replication messages —
// is encoded with internal/codec, and a checkpoint is read by the one redo
// path. JSON stays at the human edges; an encoding/json import in the log,
// the catalog (whose row slots hold the envelopes), the checkpoint writer
// and readers, the statements that log, the summary and model codecs or
// the replication stream would bring back a second format.
func TestDurableWritePathHasNoJSON(t *testing.T) {
	writePath := []string{"internal/wal/", "internal/replication/", "internal/catalog/",
		"internal/engine/persist.go", "internal/engine/replication.go", "internal/engine/integrity.go",
		"internal/engine/durability.go", "internal/engine/statements.go", "internal/summary/", "internal/textmining/"}
	expect(t, tree(t).Imports("encoding/json", writePath...))

	bad := tree(t,
		"fake/internal/wal/x.go", `package wal; import "encoding/json"; var _ = json.Marshal`,
		"fake/internal/replication/x.go", `package replication; import "encoding/json"; var _ = json.Marshal`,
		"fake/internal/catalog/table.go", `package catalog; import ("fmt"; "encoding/json"); var _ = json.Marshal`,
		"fake/internal/engine/persist.go", `package engine; import "encoding/json"; var _ = json.Marshal`)
	expect(t, bad.Imports("encoding/json", writePath...), "wal/x.go:1:21: imports", "replication/x.go:1:29: imports",
		"table.go:1:33: imports", "persist.go:1:24: imports")
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

// Every -flag the documentation passes to insightnotesd is one the daemon
// declares, so deleting a flag cannot leave stale command lines behind.
func TestDocumentedDaemonFlagsExist(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile("../../" + path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	mainSrc := read("cmd/insightnotesd/main.go")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmark/README.md", ".claude/skills/verify/SKILL.md"} {
		expect(t, StaleDaemonFlags(mainSrc, doc, read(doc)))
	}
	doc := "go run ./cmd/insightnotesd -addr :7090 -data-dir ./d \\\n" +
		"\t-scrub-interval 1m -repair-from 127.0.0.1:7092 &\n" +
		"`/tmp/insightnotesd -demo [-stmt-timeout 30s] [-no-such]` then `-connect` the REPL;\n" +
		"`insightnotesd` without `-bogus` is prose, and so is `pgrep -f insightnotesd | head -1`.\n"
	expect(t, StaleDaemonFlags(mainSrc, "x.md", doc),
		"`insightnotesd -repair-from` names no flag", "`insightnotesd -no-such` names no flag")
}

// Every flag the daemon declares is shown in the Usage block of its
// package comment, so adding a flag cannot leave the usage incomplete.
func TestDaemonFlagsInUsage(t *testing.T) {
	data, err := os.ReadFile("../../cmd/insightnotesd/main.go")
	if err != nil {
		t.Fatal(err)
	}
	expect(t, UndocumentedDaemonFlags(string(data)))
	src := "// Command d serves.\n//\n// Usage:\n//\n//\td [-addr :1] [-demo]\n//\n// With -secret it hides.\n" +
		"package main\n\nimport \"flag\"\n\nfunc main() {\n" +
		"\tflag.String(\"addr\", \"\", \"\")\n\tflag.Bool(\"demo\", false, \"\")\n\tflag.Int(\"secret\", 0, \"\")\n}\n"
	expect(t, UndocumentedDaemonFlags(src), "flag -secret is missing")
}
