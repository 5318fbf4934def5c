// Wire-level tracing tests: trace ids on responses and in stats_detail,
// SHOW TRACE rendering a full lifecycle span tree for a durable mutating
// statement, and the /traces sidecar endpoint.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/trace"
)

// startDurableTracedServer boots a server over a durable engine (WAL on)
// with admission control and full trace retention — the configuration in
// which a mutating statement's trace crosses every layer.
func startDurableTracedServer(t *testing.T) (*engine.DB, *Client) {
	t.Helper()
	db, _, err := engine.OpenDurable(
		engine.Config{CacheDir: t.TempDir(), TraceSample: 1},
		engine.DurabilityOptions{Dir: t.TempDir()},
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	srv.Admission = AdmissionConfig{MaxStatements: 4, QueueDepth: 8, QueueTimeout: time.Second}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return db, c
}

func TestTraceOverWire(t *testing.T) {
	db, c := startDurableTracedServer(t)
	mustClient(t, c, "CREATE TABLE birds (id INT, hits INT)")
	mustClient(t, c, "CREATE INDEX ON birds (id)")
	// Enough rows that the planner picks the index for the UPDATE below.
	for base := 0; base < 800; base += 100 {
		vals := make([]string, 0, 100)
		for i := base; i < base+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 0)", i))
		}
		mustClient(t, c, "INSERT INTO birds VALUES "+strings.Join(vals, ", "))
	}

	// Every mutating statement runs through the engine's one commit shell,
	// so each leaves the same trace shape: stmt.exec with the wal.append of
	// its record underneath, and then, after the lock is released,
	// wal.commit beside it. One with an indexed predicate — ADD ANNOTATION
	// as much as UPDATE — shows its access-path decision under stmt.exec.
	mustClient(t, c, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')")
	for _, tc := range []struct{ stmt, kind, planPath string }{
		{"LINK SUMMARY C TO birds", "link", ""},
		{"ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 7", "annotate", "index_scan"},
		{"TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior')", "train", ""},
		{"DROP ANNOTATION 1", "drop_annotation", ""},
		{"UNLINK SUMMARY C FROM birds", "link", ""},
		{"INSERT INTO birds VALUES (9000, 0)", "insert", ""},
		{"BULK INSERT INTO birds VALUES (9001, 0), (9002, 0)", "bulk_insert", ""},
		{"UPDATE birds SET hits = 1 WHERE id = 7", "update", "index_scan"},
		{"DELETE FROM birds WHERE id = 9000", "delete", "index_scan"},
		{"CREATE TABLE other (a INT)", "create_table", ""},
	} {
		resp := mustClient(t, c, tc.stmt)
		id, err := trace.ParseID(resp.TraceID)
		if err != nil {
			t.Fatalf("%s: trace id %q: %v", tc.stmt, resp.TraceID, err)
		}
		tr, ok := db.Tracer().Get(id)
		if !ok {
			t.Fatalf("%s: trace not retained at sample 1", tc.stmt)
		}
		if tr.Kind != tc.kind {
			t.Errorf("%s: trace kind %q, want %q", tc.stmt, tr.Kind, tc.kind)
		}
		exec, commit := -1, -1
		for i, sp := range tr.Spans {
			switch sp.Name {
			case trace.SpanExec:
				exec = i
			case trace.SpanWALCommit:
				commit = i
			}
		}
		if exec < 0 || commit < exec || tr.Spans[commit].Parent != tr.Spans[exec].Parent {
			t.Fatalf("%s: want stmt.exec followed by a sibling wal.commit:\n%s", tc.stmt, strings.Join(trace.RenderTree(tr), "\n"))
		}
		under := map[string]trace.Span{}
		for _, sp := range tr.Spans {
			if sp.Parent == exec {
				under[sp.Name] = sp
			}
		}
		if _, ok := under[trace.SpanWALAppend]; !ok {
			t.Errorf("%s: no wal.append under stmt.exec", tc.stmt)
		}
		if tc.planPath != "" {
			path := ""
			for _, a := range under[trace.SpanPlan].Attrs {
				if a.Key == "path" {
					path = a.Value()
				}
			}
			if path != tc.planPath {
				t.Errorf("%s: stmt.plan under stmt.exec has path=%q, want %q", tc.stmt, path, tc.planPath)
			}
		}
		if t.Failed() {
			t.Fatalf("trace of %s:\n%s", tc.stmt, strings.Join(trace.RenderTree(tr), "\n"))
		}
	}

	resp := mustClient(t, c, "UPDATE birds SET hits = 1 WHERE id = 7")
	if resp.TraceID == "" {
		t.Fatal("mutating response carries no trace_id")
	}

	// SHOW TRACE over the same connection renders the span tree: queue
	// wait, parse, plan (with the access-path decision), exec, and the
	// WAL append + group commit of the durable write.
	tree := mustClient(t, c, "SHOW TRACE "+resp.TraceID)
	var joined strings.Builder
	for _, row := range tree.Rows {
		joined.WriteString(row.Values[0].Str())
		joined.WriteString("\n")
	}
	out := joined.String()
	for _, want := range []string{
		"trace " + resp.TraceID,
		"kind=update",
		trace.SpanQueueWait,
		trace.SpanParse,
		trace.SpanPlan,
		trace.SpanExec,
		trace.SpanWALAppend,
		trace.SpanWALCommit,
		"path=index_scan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SHOW TRACE output missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("rendered tree:\n%s", out)
	}

	// Errors still carry the trace id so the failed statement can be
	// looked up.
	errResp, err := c.Do(context.Background(), "UPDATE birds SET nope = 1 WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if errResp.OK || errResp.TraceID == "" {
		t.Fatalf("error response = %+v; want trace_id on failure", errResp)
	}
	if showResp := mustClient(t, c, "SHOW TRACE "+errResp.TraceID); len(showResp.Rows) == 0 {
		t.Fatal("errored trace not retained")
	}

	// stats_detail cross-links the same trace id and surfaces the
	// admission-queue wait as its own field.
	sel, err := c.Do(context.Background(), "SELECT hits FROM birds WHERE id = 7", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if sel.StatsDetail == nil {
		t.Fatal("traced SELECT has no stats_detail")
	}
	if sel.StatsDetail.TraceID != sel.TraceID || sel.TraceID == "" {
		t.Fatalf("stats_detail trace id %q; response %q", sel.StatsDetail.TraceID, sel.TraceID)
	}
	if sel.StatsDetail.QueueWaitMicros < 0 {
		t.Fatalf("queue wait = %d", sel.StatsDetail.QueueWaitMicros)
	}

	// The same trace resolves through the /traces sidecar endpoint.
	mux := NewDebugMux(db)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/traces?id="+resp.TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces?id: %d %s", rec.Code, rec.Body.String())
	}
	var tj trace.TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tj); err != nil {
		t.Fatal(err)
	}
	if tj.ID != resp.TraceID || tj.Kind != "update" || len(tj.Spans) == 0 {
		t.Fatalf("/traces?id returned %+v", tj)
	}
}

// The trace option applies to SELECTs and is ignored by everything else; a
// mutation sent with it must run, not be refused as "not a SELECT".
func TestTracedMutationOverWire(t *testing.T) {
	_, c := startServer(t)
	mustClient(t, c, "CREATE TABLE birds (id INT, name TEXT)")
	resp, err := c.Do(context.Background(), "INSERT INTO birds VALUES (1, 'Swan Goose')", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("traced INSERT refused: %s", resp.Error)
	}
	sel, err := c.Do(context.Background(), "SELECT name FROM birds", WithTrace())
	if err != nil || !sel.OK || len(sel.Rows) != 1 || len(sel.Trace) == 0 {
		t.Fatalf("traced SELECT after traced INSERT: %v %+v", err, sel)
	}
}

func TestTracesEndpoint(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir(), TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustClient(t, c, "CREATE TABLE t (a INT)")
	mustClient(t, c, "INSERT INTO t VALUES (1)")
	mustClient(t, c, "SELECT a FROM t")

	mux := NewDebugMux(db)
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/traces?limit=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces: %d %s", rec.Code, rec.Body.String())
	}
	var list []trace.TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("limit ignored: %d traces", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].TSMicros > list[i-1].TSMicros {
			t.Fatal("/traces not most-recent-first")
		}
	}

	if rec := get("/traces?id=zzz"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", rec.Code)
	}
	if rec := get("/traces?id=t0000000000000001"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", rec.Code)
	}
	if rec := get("/traces?limit=0"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit: %d", rec.Code)
	}

	// Tracing disabled: the endpoint answers 503 rather than lying with
	// an empty list.
	offDB, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	offRec := httptest.NewRecorder()
	NewDebugMux(offDB).ServeHTTP(offRec, httptest.NewRequest("GET", "/traces", nil))
	if offRec.Code != http.StatusServiceUnavailable {
		t.Fatalf("disabled tracing: %d", offRec.Code)
	}
}

// TestShedTraceRetained checks that a load-shed statement leaves an
// errored (always retained) trace whose root shows the queue wait.
func TestShedTraceRetained(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{TraceSample: 1}, func(s *Server) {
		s.Admission = AdmissionConfig{MaxStatements: 1, QueueDepth: 1, QueueTimeout: 50 * time.Millisecond}
	})
	entered, release := parkServer(srv)

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	go c1.Do(context.Background(), "SELECT 1") // parks in the exec hook holding the one slot
	<-entered
	defer close(release)

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Do(context.Background(), "SELECT 2") // queues, then sheds at the timeout
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeOverloaded {
		t.Fatalf("expected shed, got %+v", resp)
	}
	if resp.TraceID == "" {
		t.Fatal("shed response carries no trace_id")
	}
	id, err := trace.ParseID(resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := srv.db.Tracer().Get(id)
	if !ok {
		t.Fatal("shed trace not retained")
	}
	if tr.Kind != "shed" || tr.Err == "" {
		t.Fatalf("shed trace = kind %q err %q", tr.Kind, tr.Err)
	}
	found := false
	for _, sp := range tr.Spans {
		if sp.Name == trace.SpanQueueWait {
			found = true
		}
	}
	if !found {
		t.Fatal("shed trace missing the queue-wait span")
	}
}
