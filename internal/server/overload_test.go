// Overload-protection tests: admission control and load shedding,
// connection caps, frame caps, write deadlines against slow readers, and
// the chaos/soak harness driving the server at a multiple of its admitted
// capacity with flaky connections.

package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/metrics"
)

// startServerWith boots a server with cfg applied before Listen and
// returns it with its address (no client).
func startServerWith(t *testing.T, ecfg engine.Config, configure func(*Server)) (*Server, string) {
	t.Helper()
	if ecfg.CacheDir == "" {
		ecfg.CacheDir = t.TempDir()
	}
	db, err := engine.Open(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// metricValue sums the samples whose name is exactly name or a labeled
// variant name{...}.
func metricValue(reg *metrics.Registry, name string) float64 {
	var v float64
	for _, s := range reg.Samples() {
		if s.Name == name || strings.HasPrefix(s.Name, name+"{") {
			v += s.Value
		}
	}
	return v
}

func waitMetric(t *testing.T, reg *metrics.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if metricValue(reg, name) >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %v (have %v)", name, want, metricValue(reg, name))
}

// parkServer installs a one-shot exec hook that blocks the first statement
// (which is already holding an admission slot) until release is closed.
func parkServer(srv *Server) (entered, release chan struct{}) {
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	srv.testHookExec = func(Request) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	return entered, release
}

// TestAdmissionShedStructured drives the limiter through both shed paths —
// queued past the timeout, and queue full — and verifies the structured
// retryable error plus the admission metrics in both the SHOW METRICS
// statement and the Prometheus endpoint.
func TestAdmissionShedStructured(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{}, func(s *Server) {
		s.Admission = AdmissionConfig{MaxStatements: 1, QueueDepth: 1, QueueTimeout: 300 * time.Millisecond}
	})
	entered, release := parkServer(srv)

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	go c1.Do(context.Background(), "CREATE TABLE parked (id INT)")
	<-entered // c1 holds the only slot

	// c2 queues and is shed when the queue timeout expires.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Do(context.Background(), "SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeOverloaded {
		t.Fatalf("queued-past-timeout response = %+v, want code %s", resp, CodeOverloaded)
	}
	if resp.RetryAfterMS <= 0 {
		t.Errorf("shed response carries no retry-after hint: %+v", resp)
	}
	if !strings.Contains(resp.Error, "overloaded") {
		t.Errorf("shed error = %q", resp.Error)
	}
	reg := srv.db.Metrics()
	waitMetric(t, reg, metrics.NameAdmissionShedTotal, 1)

	// Fill the queue (depth 1) with a waiter, then a second arrival is
	// rejected outright without waiting.
	blocked := make(chan *Response, 1)
	go func() {
		r, _ := c2.Do(context.Background(), "SHOW TABLES")
		blocked <- r
	}()
	waitMetric(t, reg, metrics.NameAdmissionQueuedTotal, 2) // c2's two queued attempts
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	start := time.Now()
	resp, err = c3.Do(context.Background(), "SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeOverloaded {
		t.Fatalf("queue-full response = %+v", resp)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Errorf("queue-full rejection took %v, want immediate", d)
	}
	if metricValue(reg, metrics.NameAdmissionRejectedTotal) < 1 {
		t.Errorf("rejected_total not incremented")
	}
	close(release)
	<-blocked

	// All admission metric names are visible to SHOW METRICS over the wire
	// and to the Prometheus text endpoint.
	c4, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	show := mustClient(t, c4, "SHOW METRICS LIKE 'insightnotes_admission_%'")
	seen := map[string]bool{}
	for _, row := range show.Rows {
		seen[row.Values[0].Str()] = true
	}
	ts := httptest.NewServer(NewDebugMux(srv.db))
	defer ts.Close()
	promResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	for _, name := range []string{
		metrics.NameAdmissionQueuedTotal,
		metrics.NameAdmissionShedTotal,
		metrics.NameAdmissionRejectedTotal,
	} {
		if !seen[name] {
			t.Errorf("SHOW METRICS missing %s (have %v)", name, seen)
		}
		if !strings.Contains(string(prom), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(string(prom), metrics.NameAdmissionWaitSeconds) {
		t.Errorf("/metrics missing %s", metrics.NameAdmissionWaitSeconds)
	}
}

// TestExecRetrySucceedsAfterShed verifies the client-side contract: a shed
// statement is retried with the server's retry-after hint as a floor and
// eventually succeeds once load clears.
func TestExecRetrySucceedsAfterShed(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{}, func(s *Server) {
		s.Admission = AdmissionConfig{MaxStatements: 1, QueueDepth: 1, QueueTimeout: 30 * time.Millisecond}
	})
	entered, release := parkServer(srv)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	go c1.Do(context.Background(), "CREATE TABLE parked (id INT)")
	<-entered

	// Release the parked statement once the retrying client has been shed
	// at least once, so the retry path is actually exercised.
	go func() {
		waitMetric(t, srv.db.Metrics(), metrics.NameAdmissionShedTotal, 1)
		close(release)
	}()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c2.Do(ctx, "SHOW TABLES", WithRetry(20, Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond}))
	if err != nil {
		t.Fatalf("ExecRetry: %v", err)
	}
	if !resp.OK {
		t.Fatalf("ExecRetry final response = %+v", resp)
	}
}

// TestMaxConnsRefused verifies the connection cap: a connection over the
// cap gets one structured retryable answer and is closed; closing an
// admitted connection frees the slot.
func TestMaxConnsRefused(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{}, func(s *Server) {
		s.MaxConns = 1
	})
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustClient(t, c1, "SHOW TABLES")

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Do(context.Background(), "SHOW TABLES")
	if err != nil {
		t.Fatalf("refused conn should still answer once: %v", err)
	}
	if resp.OK || resp.Code != CodeOverloaded || resp.RetryAfterMS <= 0 {
		t.Fatalf("refusal = %+v", resp)
	}
	if _, err := c2.Do(context.Background(), "SHOW TABLES"); err == nil {
		t.Fatal("refused connection should be closed after its one answer")
	}
	if got := metricValue(srv.db.Metrics(), metrics.NameServerConnsRefusedTotal); got != 1 {
		t.Errorf("conns_refused_total = %v, want 1", got)
	}

	// Freeing the admitted connection lets the next dial in.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c3.Do(context.Background(), "SHOW TABLES")
		c3.Close()
		if err == nil && r.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: resp=%+v err=%v", r, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrameTooLargeStructured verifies the frame cap: an oversized request
// frame gets the structured FRAME_TOO_LARGE error and the connection is
// closed (the stream position is unrecoverable).
func TestFrameTooLargeStructured(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{}, func(s *Server) {
		s.MaxFrameBytes = 4096
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(context.Background(), "SELECT '"+strings.Repeat("x", 8192)+"'")
	if err != nil {
		t.Fatalf("oversized frame should still get a structured answer: %v", err)
	}
	if resp.OK || resp.Code != CodeFrameTooLarge {
		t.Fatalf("resp = %+v, want code %s", resp, CodeFrameTooLarge)
	}
	if _, err := c.Do(context.Background(), "SHOW TABLES"); err == nil {
		t.Fatal("connection should be closed after a frame-cap violation")
	}
}

// TestSlowReaderWriteDeadline is the regression test for the handler
// parked forever in Flush: a client that stops reading while responses
// back up must not hold its serveConn goroutine past the write deadline.
func TestSlowReaderWriteDeadline(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{}, func(s *Server) {
		s.WriteTimeout = 200 * time.Millisecond
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustClient(t, c, "CREATE TABLE big (v TEXT)")
	val := strings.Repeat("x", 4<<10) // well under the 8 KiB page cap
	for i := 0; i < 64; i++ {
		mustClient(t, c, "INSERT INTO big VALUES ('"+val+"')")
	}

	// Pipeline SELECTs whose responses total far more than the kernel
	// socket buffers, and never read: the server's Flush must hit the
	// write deadline and the handler must exit.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := appendRequestFrame(nil, &Request{Stmt: "SELECT v FROM big"})
	for i := 0; i < 128; i++ {
		if _, err := conn.Write(frame); err != nil {
			break // server already gave up on us — that's the point
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for srv.active.Load() > 1 { // c stays connected; the slow reader must go
		if time.Now().After(deadline) {
			t.Fatalf("slow-reader handler still alive: active=%d", srv.active.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The engine is healthy afterwards.
	mustClient(t, c, "SHOW TABLES")
}

// TestFlakyConnFrameReassembly drives a client through the failpoint chaos
// wrapper: tiny delayed write chunks must reassemble into whole frames
// server-side, and a mid-frame drop must not wedge the server or other
// connections.
func TestFlakyConnFrameReassembly(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{}, nil)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &failpoint.FlakyConn{Conn: raw, WriteChunk: 3, WriteDelay: time.Millisecond, ReadDelay: time.Millisecond}
	c := clientOver(fc, addr)
	defer c.Close()
	mustClient(t, c, "CREATE TABLE chaos (id INT)")
	if resp := mustClient(t, c, "SHOW TABLES"); len(resp.Rows) != 1 {
		t.Fatalf("rows = %+v", resp.Rows)
	}

	// A connection dropped mid-frame: the half-written request must not
	// reach the engine, and the server must reap the connection.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	dropper := &failpoint.FlakyConn{Conn: raw2, DropAfter: 10}
	d := clientOver(dropper, addr)
	if _, err := d.Do(context.Background(), "INSERT INTO chaos VALUES (999)"); err == nil {
		t.Fatal("dropped conn should error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.active.Load() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped conn not reaped: active=%d", srv.active.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The torn INSERT never executed; the healthy client still works.
	if resp := mustClient(t, c, "SELECT id FROM chaos"); len(resp.Rows) != 0 {
		t.Fatalf("half-frame INSERT reached the engine: %+v", resp.Rows)
	}
}

// TestOverloadSoak is the chaos/soak harness: workers at ~4x the admitted
// statement capacity hammer the server with annotation writes and reads
// through retrying clients while degraded summary maintenance is active.
// Afterwards it asserts: every outcome was either success or a structured
// shed (no hangs, no opaque failures), no goroutine or connection leaks,
// admitted latency stayed bounded, and — after catch-up — the summaries
// equal a synchronous shadow replay of exactly the acknowledged
// annotations.
func TestOverloadSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Durable engine: every acknowledged write pays a real WAL fsync, so
	// statements have enough latency to contend for admission slots (and
	// the group-commit path runs under genuine concurrency).
	db, _, err := engine.OpenDurable(
		engine.Config{CacheDir: t.TempDir(), MaintenanceQueueDepth: 256},
		engine.DurabilityOptions{Dir: t.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	srv.Admission = AdmissionConfig{MaxStatements: 1, QueueDepth: 2, QueueTimeout: 50 * time.Millisecond}
	srv.WriteTimeout = 2 * time.Second
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	schema := []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan'), (3, 'Whooper Swan')",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior'), ('photo camera record', 'Other')",
		"LINK SUMMARY C TO birds",
		"CREATE SUMMARY INSTANCE S TYPE Snippet",
		"LINK SUMMARY S TO birds",
	}
	for _, stmt := range schema {
		mustClient(t, c, stmt)
	}
	c.Close()
	// Degrade summary maintenance for the whole soak: raw annotations and
	// WAL records stay synchronous, envelope updates queue for catch-up.
	srv.db.SetDegraded(true)

	const workers = 8 // well past the slot + queue capacity of 3
	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 400 * time.Millisecond
	}
	type ack struct {
		id   int
		stmt string
	}
	var (
		mu       sync.Mutex
		acked    []ack
		sheds    int
		maxAdmit time.Duration
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := DialRetry(ctx, addr, 5, Backoff{Base: 10 * time.Millisecond})
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			b := Backoff{Base: 5 * time.Millisecond, Max: 200 * time.Millisecond}
			for op := 0; time.Now().Before(stop); op++ {
				var stmt string
				if op%3 == 2 {
					stmt = "SELECT id, name FROM birds"
				} else {
					stmt = fmt.Sprintf(
						"ADD ANNOTATION 'w%d op%d observed feeding on stonewort' ON birds WHERE id = %d",
						w, op, op%3+1)
				}
				start := time.Now()
				resp, err := cl.Do(ctx, stmt, WithRetry(6, b))
				elapsed := time.Since(start)
				if err != nil {
					t.Errorf("worker %d op %d: unstructured failure: %v", w, op, err)
					return
				}
				mu.Lock()
				switch {
				case resp.OK:
					if elapsed > maxAdmit {
						maxAdmit = elapsed
					}
					var id, n int
					if strings.HasPrefix(stmt, "ADD ANNOTATION") {
						if _, err := fmt.Sscanf(resp.Message, "annotation %d attached to %d tuple(s)", &id, &n); err != nil {
							t.Errorf("bad ack message %q: %v", resp.Message, err)
						} else {
							acked = append(acked, ack{id: id, stmt: stmt})
						}
					}
				case resp.Code == CodeOverloaded:
					sheds++ // structured shed after retries: acceptable under 4x load
				default:
					t.Errorf("worker %d op %d: unstructured error %+v", w, op, resp)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("soak acknowledged no annotations")
	}
	t.Logf("soak: %d annotations acked, %d final sheds, max admitted latency %v", len(acked), sheds, maxAdmit)
	// 4x oversubscription must actually contend for slots: statements
	// waited in the admission queue at some point.
	if metricValue(srv.db.Metrics(), metrics.NameAdmissionQueuedTotal) == 0 {
		t.Error("soak generated no admission-queue pressure")
	}
	// Admitted statements must finish promptly even at 4x load: the queue
	// wait is bounded by QueueTimeout and execution is short. Generous
	// bound to absorb -race and single-core CI scheduling.
	if maxAdmit > 10*time.Second {
		t.Errorf("admitted statement took %v", maxAdmit)
	}

	// End the degraded window and let the catch-up worker drain.
	srv.db.SetDegraded(false)
	srv.db.WaitMaintenanceIdle()
	if st := srv.db.MaintenanceStats(); st.Pending != 0 || st.Degraded {
		t.Fatalf("maintenance not drained: %+v", st)
	}

	// Shadow replay: apply the same schema plus exactly the acknowledged
	// annotations, in annotation-id (=ingest) order, to a synchronous
	// engine, and compare every rendered summary over the wire.
	shadowDB, err := engine.Open(engine.Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	shadow := New(shadowDB)
	shadowAddr, err := shadow.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()
	sc, err := Dial(shadowAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for _, stmt := range schema {
		mustClient(t, sc, stmt)
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].id < acked[j].id })
	for _, a := range acked {
		mustClient(t, sc, a.stmt)
	}
	mc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	const q = "SELECT id, name FROM birds"
	got := mustClient(t, mc, q)
	want := mustClient(t, sc, q)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		for inst, ws := range w.Summaries {
			if gs := g.Summaries[inst]; gs != ws {
				t.Errorf("row %d instance %s: summary diverged after catch-up\n got: %s\nwant: %s", i, inst, gs, ws)
			}
		}
	}

	// No leaks: connections and goroutines return to baseline.
	mc.Close()
	sc.Close()
	shadow.Close()
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStaleGaugeVisible verifies the per-instance staleness gauge reaches
// both metric surfaces while summaries lag, and clears after catch-up.
func TestStaleGaugeVisible(t *testing.T) {
	srv, addr := startServerWith(t, engine.Config{}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustClient(t, c, "CREATE TABLE birds (id INT, name TEXT)")
	mustClient(t, c, "INSERT INTO birds VALUES (1, 'Swan Goose')")
	mustClient(t, c, "CREATE SUMMARY INSTANCE S TYPE Snippet")
	mustClient(t, c, "LINK SUMMARY S TO birds")
	// Park the catch-up worker so the stale window is deterministic: the
	// worker blocks inside the failpoint until gate closes.
	gate := make(chan struct{})
	failpoint.Enable(failpoint.MaintenanceApply, func() error { <-gate; return nil })
	t.Cleanup(func() {
		failpoint.Reset()
		select { // unblock the worker if the test failed before close(gate)
		case <-gate:
		default:
			close(gate)
		}
	})
	srv.db.SetDegraded(true)
	mustClient(t, c, "ADD ANNOTATION 'observed feeding' ON birds WHERE id = 1")

	show := mustClient(t, c, "SHOW METRICS LIKE 'insightnotes_summary_stale_updates%'")
	var stale float64
	for _, row := range show.Rows {
		if strings.Contains(row.Values[0].Str(), `instance="S"`) {
			stale = row.Values[2].Float()
		}
	}
	if stale < 1 {
		t.Fatalf("stale gauge for S = %v, want >= 1 (rows %+v)", stale, show.Rows)
	}
	// The degraded flag and pending count ride along in stats_detail.
	sel := mustClient(t, c, "SELECT id FROM birds")
	if sel.StatsDetail == nil || sel.StatsDetail.StalePending < 1 {
		t.Errorf("stats_detail stale_pending = %+v", sel.StatsDetail)
	}
	if line := sel.StatsDetail.String(); !strings.Contains(line, "stale") {
		t.Errorf("stats line missing stale marker: %q", line)
	}

	ts := httptest.NewServer(NewDebugMux(srv.db))
	defer ts.Close()
	promResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if !strings.Contains(string(prom), `insightnotes_summary_stale_updates{instance="S"} 1`) {
		t.Errorf("/metrics missing stale gauge:\n%s", prom)
	}
	if !strings.Contains(string(prom), "insightnotes_maintenance_pending_tasks 1") {
		t.Errorf("/metrics missing pending gauge")
	}

	close(gate)
	srv.db.SetDegraded(false)
	srv.db.WaitMaintenanceIdle()
	show = mustClient(t, c, "SHOW METRICS LIKE 'insightnotes_summary_stale_updates%'")
	for _, row := range show.Rows {
		if strings.Contains(row.Values[0].Str(), `instance="S"`) && row.Values[2].Float() != 0 {
			t.Errorf("stale gauge did not clear: %+v", row)
		}
	}
}
