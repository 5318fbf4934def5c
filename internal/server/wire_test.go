package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/codec"
	"insightnotes/internal/engine"
	"insightnotes/internal/types"
	"insightnotes/internal/zoomin"
)

// rawFrame builds a frame of the given version/kind byte around body.
func rawFrame(kind byte, body []byte) []byte {
	w := codec.BeginFrame(nil, kind)
	w.Raw(body)
	return codec.EndFrame(w)
}

// rawExchange writes frame on c's connection as is and decodes the
// response frame that answers it.
func rawExchange(t *testing.T, c *Client, frame []byte) *Response {
	t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	kind, body, err := c.in.Next()
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindResponse {
		t.Fatalf("frame kind 0x%02x, want 0x%02x", kind, kindResponse)
	}
	resp, _, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readUntilClose reads one response frame from a raw connection and then
// expects the server to close it.
func readUntilClose(t *testing.T, conn net.Conn) *Response {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	in := codec.NewFrameReader(conn, defaultMaxFrameBytes)
	kind, body, err := in.Next()
	if err != nil {
		t.Fatalf("no answer before the close: %v", err)
	}
	if kind != kindResponse {
		t.Fatalf("frame kind 0x%02x", kind)
	}
	resp, _, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the answer: %v, want EOF", err)
	}
	return resp
}

// TestClientTimeoutDoesNotPoisonConnection: an exchange that times out
// leaves its answer in flight. The client must give the connection up: a
// later call on it fails without sending, so no statement executes after
// a failed exchange on the same connection, and a late answer is never
// read as another request's.
func TestClientTimeoutDoesNotPoisonConnection(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{}, func(s *Server) {
		s.testHookExec = func(req Request) {
			if strings.Contains(req.Stmt, "(1)") {
				time.Sleep(200 * time.Millisecond)
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustClient(t, c, "CREATE TABLE t (a INT)")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, "INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("the 200 ms statement answered within a 50 ms deadline")
	}
	for _, stmt := range []string{"INSERT INTO t VALUES (2)", "INSERT INTO t VALUES (3)"} {
		if resp, err := c.Do(context.Background(), stmt); !errors.Is(err, ErrConnClosed) {
			t.Errorf("%s after a timed-out exchange: %+v, %v; want ErrConnClosed", stmt, resp, err)
		}
	}

	// Only the statement that was sent executed.
	time.Sleep(300 * time.Millisecond)
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if n := mustClient(t, other, "SELECT COUNT(*) FROM t").Rows[0].Values[0].Int(); n != 1 {
		t.Fatalf("table holds %d rows, want 1", n)
	}

	// WithRetry redials.
	resp, err := c.Do(context.Background(), "SELECT COUNT(*) FROM t", WithRetry(2, Backoff{Base: time.Millisecond}))
	if err != nil || !resp.OK {
		t.Fatalf("retry after the surrender: %+v, %v", resp, err)
	}
}

// TestJSONLinePeerGetsFrameTooLarge: a client still speaking the old
// newline-JSON protocol gets one FRAME_TOO_LARGE frame and a close — never
// a hang, even when its line is shorter than a frame header.
func TestJSONLinePeerGetsFrameTooLarge(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{}, nil)
	for _, line := range []string{`{"stmt":"SHOW TABLES"}` + "\n", "{}\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, line); err != nil {
			t.Fatal(err)
		}
		if resp := readUntilClose(t, conn); resp.OK || resp.Code != CodeFrameTooLarge {
			t.Errorf("%q: answer %+v, want %s", line, resp, CodeFrameTooLarge)
		}
		conn.Close()
	}
}

// TestOversizedFrameAnsweredBeforeBody: the cap is checked against the
// length prefix, so the answer comes without the body ever being sent.
func TestOversizedFrameAnsweredBeforeBody(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{}, func(s *Server) { s.MaxFrameBytes = 4096 })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := binary.BigEndian.AppendUint32(nil, 4097)
	if _, err := conn.Write(append(hdr, kindRequest)); err != nil {
		t.Fatal(err)
	}
	resp := readUntilClose(t, conn)
	if resp.OK || resp.Code != CodeFrameTooLarge || !strings.Contains(resp.Error, "4096") {
		t.Fatalf("answer %+v, want %s naming the cap", resp, CodeFrameTooLarge)
	}
}

// TestRefusedConnectionFrame: a connection past MaxConns gets one
// OVERLOADED frame, unasked, then a close.
func TestRefusedConnectionFrame(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{}, func(s *Server) { s.MaxConns = 1 })
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	mustClient(t, c1, "SHOW TABLES")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := readUntilClose(t, conn)
	if resp.OK || resp.Code != CodeOverloaded || resp.RetryAfterMS <= 0 {
		t.Fatalf("refusal = %+v", resp)
	}
}

// TestResponseRowsAreSpillRows: a SELECT's response carries, byte for byte,
// the rows section of the spill entry BuildCachedResult encodes for the same
// result, which the zoom-in cache holds live.
func TestResponseRowsAreSpillRows(t *testing.T) {
	srv, c := startServer(t)
	mustClient(t, c, "CREATE TABLE birds (id INT, name TEXT)")
	mustClient(t, c, "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Mute Swan'), (3, 'Smew')")
	mustClient(t, c, "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')")
	mustClient(t, c, "TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior'), ('photo camera record', 'Other')")
	mustClient(t, c, "LINK SUMMARY C TO birds")
	mustClient(t, c, "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id <= 2")

	if _, err := c.conn.Write(appendRequestFrame(nil, &Request{Stmt: "SELECT id, name FROM birds"})); err != nil {
		t.Fatal(err)
	}
	_, body, err := c.in.Next()
	if err != nil {
		t.Fatal(err)
	}
	resp, section, err := decodeResponse(body)
	if err != nil || !resp.OK || len(resp.Rows) != 3 {
		t.Fatalf("response %+v, %v", resp, err)
	}
	if !strings.Contains(resp.Rows[0].Summaries["C"], "Behavior") {
		t.Errorf("summaries = %v", resp.Rows[0].Summaries)
	}
	cached, hit, err := srv.db.Cache().Get(resp.QID)
	live, ok := cached.(*zoomin.LiveResult)
	if err != nil || !hit || !ok {
		t.Fatalf("QID %d not live in the cache: %T, %v", resp.QID, cached, err)
	}
	// The entry's header (see zoomin's entryVersion), then its rows section.
	r := codec.NewReader(zoomin.BuildCachedResult(live))
	r.Byte()
	r.Int()
	r.Str()
	for n := r.Count(3); n > 0; n-- {
		r.Str()
		r.Str()
		r.Byte()
	}
	spilled := r.Section()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(section, spilled) {
		t.Fatalf("response rows section differs from the spill's:\n%x\n%x", section, spilled)
	}
}

// sampleResponse is a response with every field set.
func sampleResponse() *Response {
	return &Response{
		OK: true, Message: "m", QID: 42, TraceID: "t-1", RetryAfterMS: 3,
		Columns: []string{"id", "name"},
		Rows: []RowJSON{
			{Values: types.Tuple{types.NewInt(1), types.NewString("Swan Goose")}, Summaries: map[string]string{"C": "(Behavior, 1)", "S": "snip"}},
			{Values: types.Tuple{types.NewInt(2), types.Null()}},
		},
		Trace:       []TraceRow{{Stage: "scan", Values: types.Tuple{types.NewFloat(0.5)}, Summary: "s"}},
		StatsDetail: &StatsJSON{Rows: 2, WallMicros: 10, OpRows: 4, Merges: 1, Curates: 2, StalePending: 1, Replica: true, ReplicaLagLSN: 9, ReplicaLagMS: -1, TraceID: "t-1", Ops: []OpStatJSON{{Op: "scan", Rows: 2}}},
	}
}

// TestWireRejectsTruncatedAndOvercounted: every proper prefix of a valid
// frame, and a count larger than the bytes left, decode to an error.
func TestWireRejectsTruncatedAndOvercounted(t *testing.T) {
	frames := map[string][]byte{
		"request":  appendRequestFrame(nil, &Request{Kind: "execute", Name: "s1", Stmt: "x", Trace: true, Args: types.Tuple{types.NewInt(7), types.NewString("a")}}),
		"response": appendResponseFrame(nil, sampleResponse()),
	}
	decode := map[string]func([]byte) error{
		"request":  func(b []byte) error { _, err := decodeRequest(b); return err },
		"response": func(b []byte) error { _, _, err := decodeResponse(b); return err },
	}
	for name, frame := range frames {
		if err := decode[name](frame[codec.FrameHeader:]); err != nil {
			t.Fatalf("%s: the whole frame fails: %v", name, err)
		}
		for n := 0; n < len(frame); n++ {
			if _, _, err := codec.NewFrameReader(bytes.NewReader(frame[:n]), defaultMaxFrameBytes).Next(); err == nil {
				t.Errorf("%s: frame prefix of %d/%d bytes read", name, n, len(frame))
			}
			if n >= codec.FrameHeader {
				if err := decode[name](frame[codec.FrameHeader:n]); err == nil {
					t.Errorf("%s: body prefix of %d/%d bytes decoded", name, n-codec.FrameHeader, len(frame)-codec.FrameHeader)
				}
			}
		}
	}

	// A response claiming a million columns in a few bytes.
	w := codec.NewWriter(nil)
	w.Bool(true) // ok
	w.Str("")    // error
	w.Str("")    // code
	w.Varint(0)  // retry_after_ms
	w.Str("")    // message
	w.Varint(0)  // qid
	w.Str("")    // trace_id
	w.Uvarint(1 << 20)
	w.Str("id")
	if _, _, err := decodeResponse(w.Bytes()); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "count") {
		t.Errorf("overcounted columns: %v", err)
	}
}

// BenchmarkResponseCodec encodes and decodes responses shaped like the
// benchmark's: a point SELECT (one annotated row), a join (64 rows) and a
// GROUP BY (8 rows whose merged summaries are large).
func BenchmarkResponseCodec(b *testing.B) {
	summaries := func(size int) map[string]string {
		return map[string]string{
			"ClassBird1": strings.Repeat("(Behavior, 12) ", size/30),
			"SnippetDoc": strings.Repeat("Experiment E results. ", size/44),
		}
	}
	shape := func(rows, width, summaryBytes int) *Response {
		resp := &Response{OK: true, QID: 1, TraceID: "0123456789abcdef", Columns: make([]string, width),
			StatsDetail: &StatsJSON{Rows: rows, WallMicros: 120, OpRows: int64(rows), Ops: []OpStatJSON{{Op: "scan", Rows: int64(rows)}}}}
		for i := range resp.Columns {
			resp.Columns[i] = fmt.Sprintf("birds.c%d", i)
		}
		for i := 0; i < rows; i++ {
			t := make(types.Tuple, width)
			for j := range t {
				if j%2 == 0 {
					t[j] = types.NewInt(int64(i*width + j))
				} else {
					t[j] = types.NewString("Anser cygnoides")
				}
			}
			resp.Rows = append(resp.Rows, RowJSON{Values: t, Summaries: summaries(summaryBytes)})
		}
		return resp
	}
	for _, c := range []struct {
		name string
		resp *Response
	}{
		{"point", shape(1, 5, 600)},
		{"join", shape(64, 8, 1200)},
		{"group_by", shape(8, 2, 48000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = appendResponseFrame(buf, c.resp)
				if _, _, err := decodeResponse(buf[codec.FrameHeader:]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
