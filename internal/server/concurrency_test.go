package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insightnotes/internal/engine"
)

// startConfiguredServer boots a server after cfg has customized it (test
// hook, statement timeout — fields that must be set before Listen) and
// returns it with a connected client.
func startConfiguredServer(t *testing.T, cfg func(*Server)) (*Server, *Client) {
	t.Helper()
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	cfg(srv)
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
	return srv, c
}

// TestServerConcurrentSelectsOverlap is the regression test for the old
// server-wide statement mutex: two SELECTs from separate connections must
// both be inside statement execution at the same time. The test hook fires
// before the engine is entered; each SELECT blocks there until the other
// has arrived, so the test deadlocks (and fails on the timeout guard) if
// the server ever serializes read statements again.
func TestServerConcurrentSelectsOverlap(t *testing.T) {
	var entered atomic.Int32
	barrier := make(chan struct{})
	srv, c := startConfiguredServer(t, func(s *Server) {
		s.testHookExec = func(req Request) {
			if !strings.HasPrefix(req.Stmt, "SELECT") {
				return
			}
			if entered.Add(1) == 2 {
				close(barrier)
			}
			select {
			case <-barrier:
			case <-time.After(5 * time.Second):
				t.Error("second concurrent SELECT never arrived: reads are serialized")
			}
		}
	})
	mustClient(t, c, "CREATE TABLE t (a INT)")
	mustClient(t, c, "INSERT INTO t VALUES (1), (2), (3)")

	addr := srv.listener.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			resp, err := cl.Do(context.Background(), "SELECT a FROM t")
			if err != nil {
				errs <- err
				return
			}
			if !resp.OK || len(resp.Rows) != 3 {
				t.Errorf("overlapping SELECT returned %+v", resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := entered.Load(); got != 2 {
		t.Fatalf("hook saw %d SELECTs, want 2", got)
	}
}

// TestServerStatementTimeout verifies the configurable per-statement
// deadline: an expired statement context surfaces as a deadline error on
// the wire, and the connection keeps serving statements afterwards.
func TestServerStatementTimeout(t *testing.T) {
	_, c := startConfiguredServer(t, func(s *Server) {
		s.StatementTimeout = time.Nanosecond
	})
	// DDL/DML don't reach the row pipeline, so setup succeeds even under
	// the nanosecond deadline; the SELECT is cancelled at statement entry.
	mustClient(t, c, "CREATE TABLE t (a INT)")
	mustClient(t, c, "INSERT INTO t VALUES (1)")

	resp, err := c.Do(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "deadline exceeded") {
		t.Fatalf("resp = %+v, want deadline error", resp)
	}
	if r := mustClient(t, c, "SHOW TABLES"); !r.OK {
		t.Fatal("connection dead after statement timeout")
	}
}

// TestServerStatsLine checks the per-statement summary surfaced in the
// protocol response, structured and as the one-line string.
func TestServerStatsLine(t *testing.T) {
	_, c := startServer(t)
	mustClient(t, c, "CREATE TABLE t (a INT)")
	mustClient(t, c, "INSERT INTO t VALUES (1), (2)")
	resp := mustClient(t, c, "SELECT a FROM t")
	if line := resp.StatsDetail.String(); !strings.HasPrefix(line, "2 row(s) in ") {
		t.Fatalf("stats = %q", line)
	}
	d := resp.StatsDetail
	if d == nil || d.Rows != 2 || d.OpRows == 0 || d.WallMicros < 0 {
		t.Fatalf("stats_detail = %+v", d)
	}
	foundScan := false
	for _, op := range d.Ops {
		if op.Op == "scan" && op.Rows == 2 {
			foundScan = true
		}
	}
	if !foundScan {
		t.Fatalf("stats_detail ops missing scan: %+v", d.Ops)
	}
	resp = mustClient(t, c, "EXPLAIN ANALYZE SELECT a FROM t")
	if resp.StatsDetail.String() == "" {
		t.Fatal("EXPLAIN ANALYZE response missing stats line")
	}
	found := false
	for _, row := range resp.Rows {
		if strings.Contains(row.Values[0].Str(), "rows=2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN ANALYZE rows missing counters: %+v", resp.Rows)
	}
}

// TestServerShowMetricsUnderLoad hammers SHOW METRICS from reader
// goroutines while writers run DML on separate connections. Metric scrapes
// walk every family (including function-backed collectors reading engine
// state) while counters are being incremented, so this is the race
// regression test for the whole registry — run it under -race.
func TestServerShowMetricsUnderLoad(t *testing.T) {
	srv, c := startServer(t)
	mustClient(t, c, "CREATE TABLE t (a INT, b TEXT)")
	mustClient(t, c, "INSERT INTO t VALUES (1, 'x')")

	addr := srv.listener.Addr().String()
	const readers, writers, iters = 4, 2, 25
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < iters; i++ {
				resp, err := cl.Do(context.Background(), "SHOW METRICS LIKE 'insightnotes_engine_%'")
				if err != nil {
					errs <- err
					return
				}
				if !resp.OK || len(resp.Rows) == 0 {
					errs <- fmt.Errorf("SHOW METRICS under load: %+v", resp)
					return
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < iters; i++ {
				stmts := []string{
					fmt.Sprintf("INSERT INTO t VALUES (%d, 'w%d')", 100*g+i, g),
					"SELECT a FROM t WHERE a >= 0",
					fmt.Sprintf("UPDATE t SET b = 'u' WHERE a = %d", 100*g+i),
				}
				for _, stmt := range stmts {
					if resp, err := cl.Do(context.Background(), stmt); err != nil || !resp.OK {
						errs <- fmt.Errorf("writer %q: %v %+v", stmt, err, resp)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The registry observed every statement that ran above.
	resp := mustClient(t, c, "SHOW METRICS LIKE 'insightnotes_server_requests_total'")
	if len(resp.Rows) != 1 {
		t.Fatalf("requests sample missing: %+v", resp.Rows)
	}
	if got := resp.Rows[0].Values[2].Float(); got < float64(readers*iters+writers*iters*3) {
		t.Fatalf("requests counter = %v, want >= %d", got, readers*iters+writers*iters*3)
	}
}

// TestDebugMuxMetricsEndpoint scrapes the HTTP sidecar and checks the
// exposition contains the engine families fed by real statements.
func TestDebugMuxMetricsEndpoint(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), "SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(NewDebugMux(db))
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE insightnotes_engine_statements_total counter",
		`insightnotes_engine_statements_total{kind="select"} 1`,
		"# TYPE insightnotes_zoomin_cache_hits_total counter",
		"# TYPE insightnotes_exec_op_seconds histogram",
		"insightnotes_zoomin_cache_puts_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// pprof index responds on the same mux.
	pr, err := http.Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", pr.StatusCode)
	}

	// Metrics disabled: /metrics answers 503 rather than an empty page.
	off, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(NewDebugMux(off))
	defer hs2.Close()
	r2, err := http.Get(hs2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled /metrics status = %d, want 503", r2.StatusCode)
	}
}
