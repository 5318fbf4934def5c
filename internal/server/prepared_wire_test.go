package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/types"
)

// TestWirePreparedLifecycle drives the structured request kinds end to
// end: Client.Prepare registers a template, Stmt.Exec binds values without
// rendering SQL literals client-side, Stmt.Close deallocates.
func TestWirePreparedLifecycle(t *testing.T) {
	_, c := startServer(t)
	ctx := context.Background()
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'O''Hara''s bird'), (3, 'Whooper Swan')",
	} {
		if resp, err := c.Do(ctx, stmt); err != nil || !resp.OK {
			t.Fatalf("%s: %v %+v", stmt, err, resp)
		}
	}

	byName, err := c.Prepare(ctx, "SELECT id FROM birds WHERE name = $1")
	if err != nil {
		t.Fatal(err)
	}
	// A value with an embedded quote proves binding never round-trips
	// through hand-rendered SQL text on the client.
	resp, err := byName.Exec(ctx, types.NewString("O'Hara's bird"))
	if err != nil || !resp.OK {
		t.Fatalf("Stmt.Exec: %v %+v", err, resp)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].Values[0].Int() != 2 {
		t.Fatalf("rows = %+v", resp.Rows)
	}
	// Wrong arity surfaces as a statement error, not a transport error.
	resp, err = byName.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "1 parameter(s)") {
		t.Fatalf("arity error = %+v", resp)
	}
	if err := byName.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := byName.Exec(ctx, types.NewString("x")); err != nil {
		t.Fatal(err)
	} else if resp.OK || !strings.Contains(resp.Error, "unknown prepared statement") {
		t.Fatalf("exec after close = %+v", resp)
	}

	// Two clients generate distinct names against the shared registry.
	c2, err := Dial(c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Prepare(ctx, "SELECT id FROM birds WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := st2.Exec(ctx, types.NewInt(3)); err != nil || !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("second client exec: %v %+v", err, resp)
	}
}

// TestWireOneShotArgs covers the unnamed-prepared-statement path: an
// exec-kind request carrying Args is parsed and bound server-side, for
// reads and for mutations (INSERT templates render elided, so the server
// must execute the bound AST, not its text rendering).
func TestWireOneShotArgs(t *testing.T) {
	_, c := startServer(t)
	ctx := context.Background()
	if resp, err := c.Do(ctx, "CREATE TABLE t (a INT, b TEXT)"); err != nil || !resp.OK {
		t.Fatalf("create: %v %+v", err, resp)
	}
	resp, err := c.Do(ctx, "INSERT INTO t VALUES ($1, $2)",
		WithArgs(types.NewInt(7), types.NewString("it's bound")))
	if err != nil || !resp.OK {
		t.Fatalf("bound insert: %v %+v", err, resp)
	}
	resp, err = c.Do(ctx, "SELECT b FROM t WHERE a = $1", WithArgs(types.NewInt(7)))
	if err != nil || !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("bound select: %v %+v", err, resp)
	}
	if got := resp.Rows[0].Values[0].String(); got != "it's bound" {
		t.Fatalf("bound value round-trip = %q", got)
	}
	// Arg-count mismatch fails before execution.
	resp, err = c.Do(ctx, "SELECT b FROM t WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "parameter") {
		t.Fatalf("unbound placeholder = %+v", resp)
	}
	// Unknown kind is a structured bad-request answer.
	resp = rawExchange(t, c, appendRequestFrame(nil, &Request{Kind: "copy", Name: "x", Stmt: "x"}))
	if resp.OK || !strings.Contains(resp.Error, "unknown kind") {
		t.Fatalf("unknown-kind response = %+v", resp)
	}
}

// TestExecuteOnReplica pins the acceptance criterion: EXECUTE of a read
// template on a replica is served and carries the replica_lag_* staleness
// stamp; EXECUTE of a mutating template is rejected READ_ONLY before the
// engine sees it; PREPARE and DEALLOCATE pass even past the staleness
// bound (registry-only), while EXECUTE of a read sheds STALE.
func TestExecuteOnReplica(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Exec(ctx, "CREATE TABLE birds (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO birds VALUES (1, 'Swan Goose')"); err != nil {
		t.Fatal(err)
	}
	fake := &fakeReplica{lagLSN: 5, lag: 30 * time.Millisecond}
	srv := New(db)
	srv.Replica = fake
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sel, err := c.Prepare(ctx, "SELECT name FROM birds WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare(ctx, "INSERT INTO birds VALUES ($1, 'Impostor')")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := sel.Exec(ctx, types.NewInt(1))
	if err != nil || !resp.OK {
		t.Fatalf("EXECUTE read on replica: %v %+v", err, resp)
	}
	sd := resp.StatsDetail
	if sd == nil || !sd.Replica || sd.ReplicaLagLSN != 5 || sd.ReplicaLagMS != 30 {
		t.Fatalf("EXECUTE missing staleness stamp: %+v", sd)
	}

	resp, err = ins.Exec(ctx, types.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err(), ErrReadOnly) {
		t.Fatalf("EXECUTE of mutating template = %+v, want ErrReadOnly", resp)
	}
	// The gate must have rejected it before execution: the row count is
	// unchanged.
	if resp, _ := c.Do(ctx, "SELECT id FROM birds"); len(resp.Rows) != 1 {
		t.Fatalf("mutating EXECUTE leaked through the gate: %+v", resp.Rows)
	}

	// Past the staleness bound: reads shed, the registry stays reachable.
	fake.stale = true
	resp, err = sel.Exec(ctx, types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err(), ErrStale) {
		t.Fatalf("stale EXECUTE = %+v, want ErrStale", resp)
	}
	stale, err := c.Prepare(ctx, "SELECT id FROM birds WHERE id = $1")
	if err != nil {
		t.Fatalf("PREPARE past staleness bound: %v", err)
	}
	if err := stale.Close(ctx); err != nil {
		t.Fatalf("DEALLOCATE past staleness bound: %v", err)
	}
}

// TestReplicaGateVerdicts pins what replica mode does with every statement
// kind, within the staleness bound and past it: reads are served then shed
// STALE, writes are READ_ONLY either way, node-local statements always pass
// — and EXECUTE gets the verdict of the template it names.
func TestReplicaGateVerdicts(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, stmt := range []string{
		"PREPARE rd AS SELECT a FROM t WHERE a = $1",
		"PREPARE wr AS INSERT INTO t VALUES ($1)",
		"PREPARE ann AS ADD ANNOTATION 'x' ON t WHERE a = $1",
	} {
		if _, err := db.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	fake := &fakeReplica{}
	srv := New(db)
	srv.Replica = fake

	const pass, readOnly, stale = "", CodeReadOnly, CodeStale
	for _, tc := range []struct{ stmt, fresh, stale string }{
		{"SELECT a FROM t", pass, stale},
		{"SHOW TABLES", pass, stale},
		{"EXPLAIN SELECT a FROM t", pass, stale},
		{"ZOOMIN REFERENCE QID 7 ON c INDEX 1", pass, stale},
		{"CREATE TABLE t (a INT)", readOnly, readOnly},
		{"CREATE INDEX ON t (a)", readOnly, readOnly},
		{"DROP TABLE t", readOnly, readOnly},
		{"INSERT INTO t VALUES (1)", readOnly, readOnly},
		{"BULK INSERT INTO t VALUES (1), (2)", readOnly, readOnly},
		{"UPDATE t SET a = 1", readOnly, readOnly},
		{"DELETE FROM t", readOnly, readOnly},
		{"ADD ANNOTATION 'x' ON t", readOnly, readOnly},
		{"DROP ANNOTATION 3", readOnly, readOnly},
		{"CREATE SUMMARY INSTANCE c TYPE Snippet", readOnly, readOnly},
		{"DROP SUMMARY INSTANCE c", readOnly, readOnly},
		{"TRAIN SUMMARY c ('x', 'a')", readOnly, readOnly},
		{"LINK SUMMARY c TO t", readOnly, readOnly},
		{"UNLINK SUMMARY c FROM t", readOnly, readOnly},
		{"CHECKPOINT", readOnly, readOnly},
		{"CHECK TABLE t", pass, pass},
		{"PREPARE p AS SELECT a FROM t", pass, pass},
		{"DEALLOCATE p", pass, pass},
		{"EXECUTE rd USING 1", pass, stale},
		{"EXECUTE wr USING 1", readOnly, readOnly},
		{"EXECUTE ann USING 1", readOnly, readOnly},
		// No such template: the engine reports it, within the bound.
		{"EXECUTE nosuch", pass, stale},
		{"not a statement", pass, pass},
	} {
		for _, isStale := range []bool{false, true} {
			fake.stale = isStale
			want := tc.fresh
			if isStale {
				want = tc.stale
			}
			resp, rejected := srv.replicaGate(tc.stmt, nil, nil, "")
			if resp.Code != want || rejected != (want != pass) {
				t.Errorf("%s (stale=%v): gate code %q rejected=%v, want %q", tc.stmt, isStale, resp.Code, rejected, want)
			}
		}
	}
	if resp, _ := srv.replicaGate("EXECUTE wr USING 1", nil, nil, ""); resp.Error != "replica is read-only: EXECUTE wr is a Insert and must run on the primary" {
		t.Errorf("EXECUTE rejection reads %q", resp.Error)
	}
	if resp, _ := srv.replicaGate("DELETE FROM t", nil, nil, ""); resp.Error != "replica is read-only: Delete must run on the primary" {
		t.Errorf("DELETE rejection reads %q", resp.Error)
	}
}

// TestPlanCacheTraceAttribute pins the observability contract: the
// stmt.plan span records whether the plan came from the cache, so a
// retained trace distinguishes a cached execution from a cold one.
func TestPlanCacheTraceAttribute(t *testing.T) {
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
	defer c.Close()
	ctx := context.Background()
	for _, stmt := range []string{
		"CREATE TABLE t (a INT)",
		"INSERT INTO t VALUES (1), (2)",
	} {
		if resp, err := c.Do(ctx, stmt); err != nil || !resp.OK {
			t.Fatalf("%s: %v %+v", stmt, err, resp)
		}
	}
	tree := func(traceID string) string {
		resp, err := c.Do(ctx, "SHOW TRACE "+traceID)
		if err != nil || !resp.OK {
			t.Fatalf("SHOW TRACE: %v %+v", err, resp)
		}
		var sb strings.Builder
		for _, row := range resp.Rows {
			sb.WriteString(row.Values[0].Str())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	cold, err := c.Do(ctx, "SELECT a FROM t WHERE a = 1")
	if err != nil || !cold.OK {
		t.Fatalf("cold select: %v %+v", err, cold)
	}
	if out := tree(cold.TraceID); !strings.Contains(out, "cache=miss") {
		t.Errorf("cold trace lacks cache=miss on stmt.plan:\n%s", out)
	}
	warm, err := c.Do(ctx, "SELECT a FROM t WHERE a = 1")
	if err != nil || !warm.OK {
		t.Fatalf("warm select: %v %+v", err, warm)
	}
	if out := tree(warm.TraceID); !strings.Contains(out, "cache=hit") {
		t.Errorf("warm trace lacks cache=hit on stmt.plan:\n%s", out)
	}
}

// TestResponseErrSentinels pins the code→sentinel mapping and that plain
// statement errors match no sentinel.
func TestResponseErrSentinels(t *testing.T) {
	for code, want := range map[string]error{
		CodeOverloaded: ErrOverloaded,
		CodeStale:      ErrStale,
		CodeReadOnly:   ErrReadOnly,
		CodeCorrupt:    ErrCorrupt,
	} {
		resp := &Response{Error: "x", Code: code, RetryAfterMS: 250}
		if !errors.Is(resp.Err(), want) {
			t.Errorf("code %s does not unwrap to %v", code, want)
		}
		var re *ResponseError
		if !errors.As(resp.Err(), &re) || re.RetryAfter != 250*time.Millisecond {
			t.Errorf("code %s: ResponseError not recoverable via errors.As", code)
		}
	}
	plain := &Response{Error: "table missing"}
	for _, sentinel := range []error{ErrOverloaded, ErrStale, ErrReadOnly, ErrCorrupt} {
		if errors.Is(plain.Err(), sentinel) {
			t.Errorf("plain statement error matches %v", sentinel)
		}
	}
	if (&Response{OK: true}).Err() != nil {
		t.Error("OK response yields a non-nil Err()")
	}
}

// TestDoHonorsContextDeadline is the regression test for the roundTrip
// deadline fix: against a server that accepts and then never answers, a
// Do call with a deadline must return promptly instead of parking forever
// in the read (or, with a full send buffer, in the frame write).
func TestDoHonorsContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Read and discard so the client's write succeeds; never reply.
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Do(ctx, "SHOW TABLES")
	if err == nil {
		t.Fatal("Do returned without error from a mute server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do took %s to honor a 150ms deadline", elapsed)
	}
	// An already-expired context must not even touch the wire.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.Do(done, "SHOW TABLES"); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context error = %v", err)
	}
}
