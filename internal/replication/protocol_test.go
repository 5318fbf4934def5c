package replication

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"insightnotes/internal/codec"
	"insightnotes/internal/engine"
)

// protocolCases holds one message of each type, every field its body
// carries set; the snapshot is a real checkpoint.
func protocolCases(tb testing.TB) []message {
	db, _, err := engine.OpenDurable(engine.Config{CacheDir: tb.TempDir()},
		engine.DurabilityOptions{Dir: tb.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		"INSERT INTO birds VALUES (1, 'Swan Goose')",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"LINK SUMMARY C TO birds",
		"ADD ANNOTATION 'observed feeding on stonewort' ON birds WHERE id = 1",
	} {
		if _, err := db.Exec(context.Background(), stmt); err != nil {
			tb.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	lsn, err := db.ReplicationSnapshot(&ckpt)
	if err != nil {
		tb.Fatal(err)
	}
	return []message{
		{Kind: msgHello, FromLSN: 41, Body: []byte{}},
		{Kind: msgRecord, LSN: 7, TipLSN: 9, RecType: "annotate", Body: []byte{1, 2, 3}},
		{Kind: msgSnapshot, LSN: lsn, TipLSN: lsn + 2, Body: ckpt.Bytes()},
		{Kind: msgHeartbeat, TipLSN: 1 << 40, Body: []byte{}},
		{Kind: msgAck, LSN: 12, Body: []byte{}},
	}
}

// Every message type round-trips through its frame.
func TestReplicationMessagesRoundTrip(t *testing.T) {
	for _, m := range protocolCases(t) {
		frame := appendMessage(nil, &m)
		kind, body, err := codec.NewFrameReader(bytes.NewReader(frame), len(frame)).Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMessage(kind, body)
		if err != nil {
			t.Fatalf("kind 0x%02x: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip:\n got  %+v\n want %+v", got, m)
		}
	}
	// A version-1 hello (from-LSN 41, want-snapshot set) is refused as an
	// unknown kind, never misparsed under this version's layout.
	if _, err := decodeMessage(1<<4|1, []byte{41, 1, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
		t.Fatalf("version-1 hello: err = %v, want unknown message kind", err)
	}
}

// FuzzReplicationMessage feeds arbitrary bytes to the message decoder
// under every kind: none may panic, and a body one accepts re-encodes to a
// frame that decodes to the same message.
func FuzzReplicationMessage(f *testing.F) {
	for _, m := range protocolCases(f) {
		f.Add(appendMessage(nil, &m)[codec.FrameHeader:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for kind := byte(msgHello); kind <= msgAck+1; kind++ {
			m, err := decodeMessage(kind, body)
			if err != nil {
				continue
			}
			again := appendMessage(nil, &m)
			back, err := decodeMessage(again[codec.FrameHeader-1], again[codec.FrameHeader:])
			if err != nil {
				t.Fatalf("kind 0x%02x: re-encoded message does not decode: %v", kind, err)
			}
			if !reflect.DeepEqual(back, m) {
				t.Fatalf("kind 0x%02x: decode → encode → decode changed the message:\n%+v\n%+v", kind, m, back)
			}
		}
	})
}
