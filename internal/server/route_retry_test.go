package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insightnotes/internal/codec"
	"insightnotes/internal/engine"
)

// TestBackoffJitterBounds pins the jitter envelope: for every attempt,
// the delay with jitter j and draw r is exactly grown*(1+j*r), so it
// must stay within [grown, grown*(1+j)] for any draw — and a negative
// jitter must disable the term entirely.
func TestBackoffJitterBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 160*time.Millisecond
	grown := func(attempt int) time.Duration {
		d := base
		for i := 0; i < attempt && d < max; i++ {
			d *= 2
		}
		if d > max {
			d = max
		}
		return d
	}
	for _, draw := range []float64{0, 0.25, 0.5, 0.999999} {
		b := Backoff{Base: base, Max: max, Jitter: 0.5, Rand: func() float64 { return draw }}
		for attempt := 0; attempt < 8; attempt++ {
			lo := grown(attempt)
			hi := lo + time.Duration(float64(lo)*0.5)
			got := b.Delay(attempt)
			if got < lo || got > hi {
				t.Errorf("draw=%v Delay(%d) = %v, want within [%v, %v]", draw, attempt, got, lo, hi)
			}
			if want := lo + time.Duration(float64(lo)*0.5*draw); got != want {
				t.Errorf("draw=%v Delay(%d) = %v, want exactly %v", draw, attempt, got, want)
			}
		}
	}
	// Negative jitter disables the term even though the draw is maximal.
	nb := Backoff{Base: base, Max: max, Jitter: -1, Rand: func() float64 { return 0.999999 }}
	for attempt := 0; attempt < 8; attempt++ {
		if got := nb.Delay(attempt); got != grown(attempt) {
			t.Errorf("jitter<0 Delay(%d) = %v, want exactly %v", attempt, got, grown(attempt))
		}
	}
}

// startNamedServer boots a server whose single-row table identifies it,
// so routing tests can tell which endpoint served a read.
func startNamedServer(t *testing.T, name string) (addr string, closeFn func()) {
	t.Helper()
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "CREATE TABLE who (name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), fmt.Sprintf("INSERT INTO who VALUES ('%s')", name)); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, func() { srv.Close() }
}

func servedBy(t *testing.T, resp *Response) string {
	t.Helper()
	if resp == nil || !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("routed read = %+v", resp)
	}
	return resp.Rows[0].Values[0].String()
}

// TestRoutedReadRotatesAcrossReplicas verifies the read preference
// rotates: consecutive reads land on different replicas, and the
// primary is not used while replicas answer.
func TestRoutedReadRotatesAcrossReplicas(t *testing.T) {
	paddr, pclose := startNamedServer(t, "primary")
	defer pclose()
	a, aclose := startNamedServer(t, "replica-a")
	defer aclose()
	b, bclose := startNamedServer(t, "replica-b")
	defer bclose()

	rc := NewRoutedClient(Topology{Primary: paddr, Replicas: []string{a, b}})
	defer rc.Close()
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		resp, err := rc.ExecRead(context.Background(), "SELECT name FROM who", 1)
		if err != nil {
			t.Fatal(err)
		}
		seen[servedBy(t, resp)]++
	}
	if seen["replica-a"] != 2 || seen["replica-b"] != 2 || seen["primary"] != 0 {
		t.Fatalf("rotation skewed: %v", seen)
	}
}

// TestRoutedReadRotatesPastRefusedEndpoints is the failover-ordering
// regression: refused replica connections rotate to the next endpoint in
// the same pass, ending at the primary, without burning retry passes.
func TestRoutedReadRotatesPastRefusedEndpoints(t *testing.T) {
	paddr, pclose := startNamedServer(t, "primary")
	defer pclose()
	// Two endpoints that refuse connections: bind, grab the address, close.
	deadAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	rc := NewRoutedClient(Topology{Primary: paddr, Replicas: []string{deadAddr(), deadAddr()}})
	defer rc.Close()
	rc.SetBackoff(Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond})

	start := time.Now()
	resp, err := rc.ExecRead(context.Background(), "SELECT name FROM who", 1)
	if err != nil {
		t.Fatalf("read with refused replicas should fail over to the primary: %v", err)
	}
	if got := servedBy(t, resp); got != "primary" {
		t.Fatalf("served by %q, want primary", got)
	}
	// A single pass suffices — no between-pass backoff sleeps happened.
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("failover took %v; refused endpoints must rotate within the pass", took)
	}

	// One replica comes alive: reads prefer it over the primary again.
	raddr, rclose := startNamedServer(t, "replica-late")
	defer rclose()
	rc2 := NewRoutedClient(Topology{Primary: paddr, Replicas: []string{deadAddr(), raddr}})
	defer rc2.Close()
	for i := 0; i < 2; i++ {
		resp, err := rc2.ExecRead(context.Background(), "SELECT name FROM who", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := servedBy(t, resp); got != "replica-late" {
			t.Fatalf("read %d served by %q, want replica-late", i, got)
		}
	}
}

// scriptedServer runs a raw TCP endpoint whose per-connection behavior
// is driven by script; it counts requests that actually arrived so
// resend bugs are observable.
func scriptedServer(t *testing.T, script func(conn net.Conn, reqs *atomic.Int64)) (addr string, reqs *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	reqs = &atomic.Int64{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go script(conn, reqs)
		}
	}()
	return ln.Addr().String(), reqs
}

// TestExecMutationNoRetryAfterPartialSend: once any bytes of a mutation
// hit the wire and the exchange fails, the statement's fate is unknown
// and the client must NOT resend — exactly one request may ever reach
// the server, and the error says why.
func TestExecMutationNoRetryAfterPartialSend(t *testing.T) {
	addr, reqs := scriptedServer(t, func(conn net.Conn, reqs *atomic.Int64) {
		// Read the full request (it arrived — maybe it executed), then
		// drop the connection without answering: the ambiguous case.
		if _, _, err := codec.NewFrameReader(conn, defaultMaxFrameBytes).Next(); err == nil {
			reqs.Add(1)
		}
		conn.Close()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	_, err = c.Do(context.Background(), "INSERT INTO birds VALUES (1, 'x')", WithRetry(5, b), WithMutation())
	if err == nil {
		t.Fatal("mutation over a dropping connection must error")
	}
	if !strings.Contains(err.Error(), "not retried") {
		t.Fatalf("error should state the no-retry decision, got: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let any (buggy) resend arrive
	if got := reqs.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1 (no resend after partial send)", got)
	}
}

// TestExecMutationRetriesPreEngineShed: a structured OVERLOADED shed is
// issued before the statement enters the engine, so resending is safe
// and the client must retry it — in contrast to the transport case.
func TestExecMutationRetriesPreEngineShed(t *testing.T) {
	addr, reqs := scriptedServer(t, func(conn net.Conn, reqs *atomic.Int64) {
		defer conn.Close()
		if _, _, err := codec.NewFrameReader(conn, defaultMaxFrameBytes).Next(); err != nil {
			return
		}
		if reqs.Add(1) == 1 {
			// First request: shed pre-engine, then close (as the real
			// server does for connect-time refusals).
			conn.Write(appendResponseFrame(nil, &Response{Error: "server overloaded: test", Code: CodeOverloaded, RetryAfterMS: 1}))
			return
		}
		conn.Write(appendResponseFrame(nil, &Response{OK: true, Message: "done"}))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	resp, err := c.Do(context.Background(), "INSERT INTO birds VALUES (1, 'x')", WithRetry(5, b), WithMutation())
	if err != nil {
		t.Fatalf("shed mutation should retry and succeed: %v", err)
	}
	if !resp.OK || resp.Message != "done" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (shed then retry)", got)
	}
}

// fakeReplica scripts a ReplicaSource for gate tests.
type fakeReplica struct {
	lagLSN uint64
	lag    time.Duration
	stale  bool
}

func (f *fakeReplica) Staleness() (uint64, time.Duration, bool) { return f.lagLSN, f.lag, f.stale }

// TestReplicaGate unit-tests the server-side replica gate against a
// scripted staleness source: mutations are rejected READ_ONLY, stale
// reads shed STALE with a retry hint, fresh reads pass and carry the
// explicit staleness bound in stats_detail.
func TestReplicaGate(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "CREATE TABLE birds (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	fake := &fakeReplica{lagLSN: 3, lag: 40 * time.Millisecond}
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

	// Fresh read: served, stamped with the staleness bound.
	resp, err := c.Do(context.Background(), "SELECT id FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("fresh replica read rejected: %+v", resp)
	}
	sd := resp.StatsDetail
	if sd == nil || !sd.Replica || sd.ReplicaLagLSN != 3 || sd.ReplicaLagMS != 40 {
		t.Fatalf("staleness stamp = %+v, want replica lag_lsn=3 lag_ms=40", sd)
	}

	// SHOW is a read too, and gets the stamp even without exec stats.
	resp, err = c.Do(context.Background(), "SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.StatsDetail == nil || !resp.StatsDetail.Replica {
		t.Fatalf("SHOW on replica = %+v (stats %+v)", resp, resp.StatsDetail)
	}

	// Every mutation class is turned away with READ_ONLY.
	for _, stmt := range []string{
		"INSERT INTO birds VALUES (1, 'x')",
		"UPDATE birds SET name = 'y' WHERE id = 1",
		"DELETE FROM birds WHERE id = 1",
		"CREATE TABLE other (id INT)",
		"DROP TABLE birds",
		"ADD ANNOTATION 'z' ON birds WHERE id = 1",
		"CHECKPOINT",
	} {
		resp, err := c.Do(context.Background(), stmt)
		if err != nil {
			t.Fatalf("Exec(%q): %v", stmt, err)
		}
		if resp.OK || resp.Code != CodeReadOnly {
			t.Fatalf("Exec(%q) = %+v, want code %s", stmt, resp, CodeReadOnly)
		}
	}

	// CHECK TABLE is not a mutation: it verifies and repairs this
	// node's own pages, so the replica gate lets it through.
	resp, err = c.Do(context.Background(), "CHECK TABLE birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("CHECK TABLE on replica = %+v, want ok", resp)
	}

	// Past the bound: reads shed with the structured STALE error.
	fake.stale = true
	resp, err = c.Do(context.Background(), "SELECT id FROM birds")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeStale || resp.RetryAfterMS <= 0 {
		t.Fatalf("stale read = %+v, want code %s with retry hint", resp, CodeStale)
	}
	// ...but CHECK TABLE still runs — bit rot doesn't wait for the link.
	resp, err = c.Do(context.Background(), "CHECK TABLE birds")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("CHECK TABLE on stale replica = %+v, want ok", resp)
	}
	// A mutation still reports READ_ONLY (routing beats retrying).
	resp, err = c.Do(context.Background(), "INSERT INTO birds VALUES (2, 'x')")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeReadOnly {
		t.Fatalf("stale replica mutation = %+v, want code %s", resp, CodeReadOnly)
	}
}
