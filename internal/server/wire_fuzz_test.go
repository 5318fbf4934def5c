package server

import (
	"bytes"
	"runtime"
	"testing"

	"insightnotes/internal/codec"
	"insightnotes/internal/engine"
	"insightnotes/internal/types"
)

// seedRequests are requests of every kind a client sends.
var seedRequests = []Request{
	{Stmt: "CREATE TABLE birds (id INT, name TEXT, wingspan FLOAT)"},
	{Stmt: "INSERT INTO birds VALUES (1, 'Swan Goose', 1.8), (2, 'Mute Swan', 2.2), (3, 'Smew', NULL)"},
	{Stmt: "CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')"},
	{Stmt: "TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior'), ('photo camera record', 'Other')"},
	{Stmt: "LINK SUMMARY C TO birds"},
	{Stmt: "ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id <= 2"},
	{Stmt: "SELECT id, name, wingspan FROM birds", Trace: true},
	{Stmt: "SELECT name FROM birds WHERE id = $1", Args: types.Tuple{types.NewInt(2)}},
	{Kind: "prepare", Name: "byid", Stmt: "SELECT id, name FROM birds WHERE id = $1"},
	{Kind: "execute", Name: "byid", Args: types.Tuple{types.NewInt(1)}},
	{Stmt: "EXPLAIN ANALYZE SELECT COUNT(*) FROM birds GROUP BY name"},
	{Stmt: "ZOOMIN REFERENCE QID 1 ON C INDEX 1"},
	{Kind: "deallocate", Name: "byid"},
	{Stmt: "SELECT missing FROM nowhere"},
}

// seedFrames runs seedRequests through a server's statement path and
// returns the request and response frames exchanged.
func seedFrames(f *testing.F) (requests, responses [][]byte) {
	db, err := engine.Open(engine.Config{CacheDir: f.TempDir(), DisableMetrics: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	s := New(db)
	for i := range seedRequests {
		resp := s.execute(seedRequests[i])
		requests = append(requests, appendRequestFrame(nil, &seedRequests[i]))
		responses = append(responses, appendResponseFrame(nil, &resp))
	}
	return requests, responses
}

// allocBound fails t when fn allocates more than a small multiple of the
// n input bytes it decodes: every count and length is checked against the
// input before anything is allocated, so the input size bounds the output.
func allocBound(t *testing.T, n int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*n+64<<10); got > bound {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", n, got, bound)
	}
}

// readFrameBody reads the frame data starts with; ok is false when it
// does not hold one.
func readFrameBody(data []byte) (body []byte, ok bool) {
	_, body, err := codec.NewFrameReader(bytes.NewReader(data), len(data)).Next()
	return body, err == nil
}

func FuzzDecodeRequest(f *testing.F) {
	requests, _ := seedFrames(f)
	for _, frame := range requests {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, ok := readFrameBody(data)
		if !ok {
			return
		}
		var req Request
		var err error
		allocBound(t, len(body), func() { req, err = decodeRequest(body) })
		if err != nil {
			return
		}
		again := appendRequestFrame(nil, &req)
		back, err := decodeRequest(again[codec.FrameHeader:])
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if third := appendRequestFrame(nil, &back); !bytes.Equal(third, again) {
			t.Fatalf("decode → encode → decode changed the request:\n%x\n%x", again, third)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	_, responses := seedFrames(f)
	for _, frame := range responses {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, ok := readFrameBody(data)
		if !ok {
			return
		}
		var resp *Response
		var err error
		allocBound(t, len(body), func() { resp, _, err = decodeResponse(body) })
		if err != nil {
			return
		}
		again := appendResponseFrame(nil, resp)
		back, _, err := decodeResponse(again[codec.FrameHeader:])
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if third := appendResponseFrame(nil, back); !bytes.Equal(third, again) {
			t.Fatalf("decode → encode → decode changed the response:\n%x\n%x", again, third)
		}
	})
}
