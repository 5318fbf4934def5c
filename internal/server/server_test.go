package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"insightnotes/internal/engine"
)

// startServer boots a server on an ephemeral port and returns a connected
// client.
func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
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
	return srv, c
}

func mustClient(t *testing.T, c *Client, stmt string) *Response {
	t.Helper()
	resp, err := c.Do(context.Background(), stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	if !resp.OK {
		t.Fatalf("Exec(%q): server error %q", stmt, resp.Error)
	}
	return resp
}

func TestServerEndToEnd(t *testing.T) {
	_, c := startServer(t)
	mustClient(t, c, "CREATE TABLE birds (id INT, name TEXT)")
	mustClient(t, c, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan')")
	mustClient(t, c, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')")
	mustClient(t, c, "TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior'), ('photo camera record', 'Other')")
	mustClient(t, c, "LINK SUMMARY C TO birds")
	mustClient(t, c, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1")

	resp := mustClient(t, c, "SELECT id, name FROM birds WHERE id = 1")
	if resp.QID == 0 || len(resp.Rows) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Columns) != 2 || resp.Columns[0] != "id" {
		t.Errorf("columns = %v", resp.Columns)
	}
	row := resp.Rows[0]
	if row.Values[1].Str() != "Swan Goose" {
		t.Errorf("values = %v", row.Values)
	}
	if !strings.Contains(row.Summaries["C"], "(Behavior, 1)") {
		t.Errorf("summaries = %v", row.Summaries)
	}
	// Zoom-in over the wire: C's elements are its two labels, in order.
	zoom := mustClient(t, c, fmt.Sprintf("ZOOMIN REFERENCE QID %d ON C INDEX 1", resp.QID))
	if len(zoom.Rows) != 1 || zoom.Rows[0].Values[3].Str() != "observed feeding on stonewort" {
		t.Fatalf("zoom = %+v", zoom.Rows)
	}
	if other := mustClient(t, c, fmt.Sprintf("ZOOMIN REFERENCE QID %d ON C INDEX 2", resp.QID)); len(other.Rows) != 0 {
		t.Errorf("zoom on Other = %+v", other.Rows)
	}
	bad, err := c.Do(context.Background(), fmt.Sprintf("ZOOMIN REFERENCE QID %d ON C INDEX 3", resp.QID))
	if err != nil || bad.OK || !strings.Contains(bad.Error, "1..2") {
		t.Errorf("zoom past the last element = %+v, %v", bad, err)
	}
}

func TestServerErrorsAndBadInput(t *testing.T) {
	_, c := startServer(t)
	resp, err := c.Do(context.Background(), "SELECT a FROM missing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("resp = %+v", resp)
	}
	// The connection survives the error.
	if r := mustClient(t, c, "SHOW TABLES"); !r.OK {
		t.Error("connection dead after error")
	}
	// A well-framed but malformed request, or a frame of another kind,
	// is rejected but the connection keeps working.
	for _, frame := range [][]byte{
		rawFrame(kindRequest, []byte("this is not a request")),
		rawFrame(kindResponse, nil),
	} {
		resp := rawExchange(t, c, frame)
		if resp.OK || !strings.Contains(resp.Error, "bad request") {
			t.Errorf("response = %+v", resp)
		}
		if r := mustClient(t, c, "SHOW TABLES"); !r.OK {
			t.Error("connection dead after a bad request")
		}
	}
}

func TestServerTracedQuery(t *testing.T) {
	_, c := startServer(t)
	mustClient(t, c, "CREATE TABLE t (a INT)")
	mustClient(t, c, "INSERT INTO t VALUES (1)")
	resp, err := c.Do(context.Background(), "SELECT a FROM t", WithTrace())
	if err != nil || !resp.OK {
		t.Fatalf("%+v, %v", resp, err)
	}
	if len(resp.Trace) == 0 {
		t.Error("no trace entries")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, c := startServer(t)
	mustClient(t, c, "CREATE TABLE t (a INT, b TEXT)")
	addr := srv.listener.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 25; i++ {
				stmt := fmt.Sprintf("INSERT INTO t VALUES (%d, 'g%d')", g*100+i, g)
				if resp, err := cl.Do(context.Background(), stmt); err != nil || !resp.OK {
					errs <- fmt.Errorf("insert: %v %+v", err, resp)
					return
				}
				if resp, err := cl.Do(context.Background(), "SELECT COUNT(*) FROM t"); err != nil || !resp.OK {
					errs <- fmt.Errorf("count: %v %+v", err, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp := mustClient(t, c, "SELECT COUNT(*) FROM t")
	if resp.Rows[0].Values[0].Int() != 200 {
		t.Errorf("final count = %v", resp.Rows[0].Values[0])
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	db, err := engine.Open(engine.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
