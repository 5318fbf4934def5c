// Package replication ships the primary's WAL to read replicas over a
// TCP stream and keeps every replica's staleness bounded and observable.
//
// Topology and flow:
//
//	primary engine ──commit──▶ wal.log ◀──tail── Sender ══TCP══▶ Receiver ──apply──▶ replica engine
//	                                                 ▲                │
//	                                                 └──── acks ──────┘
//
// The Sender sits entirely off the commit path: it tails the primary's
// WAL file up to the durable frontier (never shipping bytes an fsync has
// not covered) and streams records to each connected replica, tracking
// per-replica acknowledged LSNs for lag accounting. A replica that falls
// behind a rotated WAL — its resume position predates the log — is
// shed-and-resynced with a full snapshot instead of blocking the
// primary. The Receiver dials the primary, resumes from the last LSN its
// own WAL made durable, applies records through the engine's recovery
// redo path, and persists them locally before acknowledging, so a
// crash-restart cycle loses nothing and re-applies nothing.
//
// Staleness is explicit: every record and heartbeat carries the
// primary's tip LSN; the Receiver derives a lag (LSNs and wall time) that
// the server layer attaches to every replica-served response and
// enforces as a hard bound (-max-staleness) by shedding reads with a
// structured STALE error.
package replication

import (
	"bytes"
	"fmt"
	"io"

	"insightnotes/internal/codec"
)

// Messages of the replication stream. Each is one codec frame
// (codec.BeginFrame, codec.FrameReader) whose kind byte is
// replVersion<<4 | the message type, and whose body is every field of
// message in order — uvarint from-LSN, uvarint LSN, uvarint tip, str
// record type, rest: the body — each type setting the fields it uses and
// leaving the others zero:
//
//	hello      from-LSN                  replica→primary, opens a session
//	record     LSN, tip, type, body      one committed WAL record, body verbatim
//	snapshot   LSN, tip, body            the primary's checkpoint stream
//	heartbeat  tip                       sent while the stream is idle
//	ack        LSN                       replica→primary
//
// A hello's from-LSN is the last LSN the replica's own WAL holds durably:
// streaming resumes at from-LSN+1. Every record, snapshot and heartbeat
// carries the primary's tip LSN, so a replica measures its lag without a
// separate channel. A snapshot resyncs a replica whose position predates
// the primary's log, streaming continuing from its LSN+1; it is the
// engine's checkpoint byte for byte, so its integrity rests on the
// checkpoint's own per-record CRCs and trailer count, which the engine
// checks before installing it. An ack reports the highest LSN the replica
// has applied and made locally durable. A peer speaking another version
// sends kind bytes outside this version's range, so its first frame fails
// as an unknown kind instead of being misparsed.
const (
	replVersion = 2

	msgHello = replVersion<<4 | (iota + 1)
	msgRecord
	msgSnapshot
	msgHeartbeat
	msgAck
)

// message is one frame of the replication stream in either direction.
type message struct {
	Kind    byte
	FromLSN uint64
	LSN     uint64
	TipLSN  uint64
	RecType string
	Body    []byte
}

// appendMessage encodes m as one frame, reusing dst's storage.
func appendMessage(dst []byte, m *message) []byte {
	w := codec.BeginFrame(dst, m.Kind)
	w.Uvarint(m.FromLSN)
	w.Uvarint(m.LSN)
	w.Uvarint(m.TipLSN)
	w.Str(m.RecType)
	w.Raw(m.Body)
	return codec.EndFrame(w)
}

// decodeMessage parses one frame. The body it returns is a copy: the
// frame's buffer is reused by the next read.
func decodeMessage(kind byte, body []byte) (message, error) {
	if kind < msgHello || kind > msgAck {
		return message{}, fmt.Errorf("replication: unknown message kind 0x%02x", kind)
	}
	r := codec.NewReader(body)
	m := message{Kind: kind, FromLSN: r.Uvarint(), LSN: r.Uvarint(), TipLSN: r.Uvarint(), RecType: r.Str()}
	m.Body = bytes.Clone(r.Rest())
	if err := r.Done(); err != nil {
		return message{}, fmt.Errorf("replication: message kind 0x%02x: %w", kind, err)
	}
	return m, nil
}

// msgConn speaks messages over one connection: one frame reader and one
// reused frame buffer. Reads and writes may run on two goroutines, but
// each on one only.
type msgConn struct {
	in  *codec.FrameReader
	out io.Writer
	buf []byte
}

func newMsgConn(c io.ReadWriter) *msgConn {
	return &msgConn{in: codec.NewFrameReader(c, codec.MaxFrameCap), out: c}
}

func (c *msgConn) read() (message, error) {
	kind, body, err := c.in.Next()
	if err != nil {
		return message{}, err
	}
	return decodeMessage(kind, body)
}

func (c *msgConn) write(m *message) error {
	c.buf = appendMessage(c.buf, m)
	_, err := c.out.Write(c.buf)
	if cap(c.buf) > 1<<20 {
		c.buf = nil // a snapshot's frame is not kept for the heartbeats after it
	}
	return err
}
