package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestQueryContextPreCancelled(t *testing.T) {
	db := birdDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.Query(ctx, "SELECT id, name FROM birds")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestExecContextCancelledWrite(t *testing.T) {
	db := birdDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// SELECT routed through Exec honors the context too.
	if _, err := db.Exec(ctx, "SELECT id FROM birds"); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The statement never ran: a fresh query still sees three birds.
	res := mustExec(t, db, "SELECT COUNT(*) FROM birds")
	if got := res.Rows[0].Tuple[0].Int(); got != 3 {
		t.Fatalf("birds = %d, want 3", got)
	}
}

func TestExecScriptContextStopsBetweenStatements(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := db.ExecScript(ctx, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(results) != 0 {
		t.Fatalf("cancelled script completed %d statements", len(results))
	}
}

// TestZoomInCancelledReexecution forces the zoom-in cache-miss path (a
// 1-byte budget admits nothing) and cancels the recreation query: the
// zoom-in must fail with the context error and must not leave a partial
// cache entry behind.
func TestZoomInCancelledReexecution(t *testing.T) {
	db, err := Open(Config{CacheDir: t.TempDir(), CacheBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	script := `
	CREATE TABLE birds (id INT, name TEXT, sci_name TEXT, wingspan FLOAT);
	INSERT INTO birds VALUES (1, 'Swan Goose', 'Anser cygnoides', 1.8);
	CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier LABELS ('Behavior', 'Other');
	TRAIN SUMMARY ClassBird1 ('found eating stonewort', 'Behavior'), ('see photo', 'Other');
	LINK SUMMARY ClassBird1 TO birds;
	ADD ANNOTATION 'found eating stonewort at dawn' ON birds WHERE id = 1;
	`
	if _, err := db.ExecScript(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT id, name FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if db.Cache().Contains(res.QID) {
		t.Fatal("1-byte cache budget admitted an entry; test premise broken")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = db.ZoomIn(ctx, ZoomInRequest{QID: res.QID, Instance: "ClassBird1", Index: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if db.Cache().Contains(res.QID) {
		t.Fatal("cancelled zoom-in re-execution left a cache entry")
	}

	// The same zoom-in succeeds under a live context.
	out, hit, err := db.ZoomIn(context.Background(), ZoomInRequest{QID: res.QID, Instance: "ClassBird1", Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("expected a cache miss on the retry")
	}
	if len(out) != 1 {
		t.Fatalf("zoom-in matched %d rows, want 1", len(out))
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	db := birdDB(t)
	res, err := db.Query(context.Background(), "SELECT id, name FROM birds WHERE id <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("SELECT result missing Stats")
	}
	if res.Stats.Rows != len(res.Rows) {
		t.Fatalf("Stats.Rows = %d, want %d", res.Stats.Rows, len(res.Rows))
	}
	if res.Stats.OpRows < int64(len(res.Rows)) {
		t.Fatalf("Stats.OpRows = %d, want >= %d", res.Stats.OpRows, len(res.Rows))
	}
	if !strings.Contains(res.Stats.String(), "row(s)") {
		t.Fatalf("stats summary %q malformed", res.Stats.String())
	}
}

func TestExplainAnalyzeEndToEnd(t *testing.T) {
	db := birdDB(t)
	mustExec(t, db, "ADD ANNOTATION 'observed feeding at dawn' ON birds WHERE id = 1")
	res := mustExec(t, db, "EXPLAIN ANALYZE SELECT id, name FROM birds WHERE id <= 2")
	if res.Stats == nil {
		t.Fatal("EXPLAIN ANALYZE missing Stats")
	}
	var text strings.Builder
	for _, row := range res.Rows {
		text.WriteString(row.Tuple[0].Str())
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{"Project+Curate", "(rows=", "time=", "Total:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// Plain EXPLAIN stays counter-free.
	res = mustExec(t, db, "EXPLAIN SELECT id FROM birds")
	for _, row := range res.Rows {
		if strings.Contains(row.Tuple[0].Str(), "rows=") {
			t.Fatalf("plain EXPLAIN leaked counters: %s", row.Tuple[0].Str())
		}
	}
	if res.Stats != nil {
		t.Fatal("plain EXPLAIN should not carry Stats")
	}
}
