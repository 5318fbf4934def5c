package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrIncompleteTail reports a frame at the end of the log that is not
// fully written yet: a short header, a short payload, or a checksum
// mismatch on the final frame. While the file is being appended
// concurrently (the replication streaming case, as opposed to crash
// recovery) this is the normal race between the writer's two syscalls
// and the reader — the caller retries after the durable frontier
// advances, it never truncates.
var ErrIncompleteTail = errors.New("wal: incomplete frame at tail (still being written)")

// ErrCorrupt reports a frame that can never become valid by appending
// more bytes: an out-of-range length field, a CRC mismatch below the
// caller's durable bound, an unparsable payload, or a non-increasing
// LSN. A tailing reader below the durable frontier treats this as real
// log damage.
var ErrCorrupt = errors.New("wal: corrupt frame")

// ErrFormat reports a CRC-valid frame written in a format this build does
// not read — a log from before a format change. It is never a torn tail:
// Replay returns it and leaves the file untouched.
var ErrFormat = errors.New("wal: unsupported record format")

// ErrRotated reports that the file shrank below the reader's offset: a
// checkpoint truncated the log underneath the tail. The reader's byte
// position is meaningless now; reopen from the start (records already
// delivered are skippable by LSN).
var ErrRotated = errors.New("wal: log rotated under tail reader")

// TailReader incrementally reads framed records from a live WAL file
// that another handle may still be appending to. All reads are
// positional (pread), so a TailReader never disturbs the writer's append
// offset. It is not safe for concurrent use by multiple goroutines.
type TailReader struct {
	f       *os.File
	offset  int64
	prevLSN uint64
	header  [headerBytes]byte
	payload []byte
}

// OpenTail opens the log at path for tailing from its start.
func OpenTail(path string) (*TailReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &TailReader{f: f, payload: make([]byte, 0, 4096)}, nil
}

// Offset returns the byte offset of the next unread frame.
func (t *TailReader) Offset() int64 { return t.offset }

// Close closes the underlying file.
func (t *TailReader) Close() error { return t.f.Close() }

// Next reads the next record. durable bounds how far the log is known to
// be fsynced (the writer's durable frontier; pass -1 when unknown, e.g.
// reading a log no process is appending to): frames beginning at or past
// the bound are never returned — they may still be mid-write — and any
// malformed frame strictly below it is ErrCorrupt rather than
// ErrIncompleteTail, because a durably committed frame can only be
// malformed through damage.
//
// Returns io.EOF cleanly at the readable end, ErrIncompleteTail for a
// partially visible final frame (retry after the frontier advances),
// ErrRotated if the file shrank below the current offset, ErrFormat for an
// intact frame of another format, and ErrCorrupt (both wrapped with
// position detail) for unrecoverable damage.
func (t *TailReader) Next(durable int64) (Record, error) {
	bounded := durable >= 0
	if bounded && t.offset >= durable {
		if err := t.checkRotated(); err != nil {
			return Record{}, err
		}
		return Record{}, io.EOF
	}
	incomplete := func() (Record, error) {
		// A short read is either a frame still being written, or the
		// aftermath of a rotation that moved EOF below us; distinguish
		// by size so the caller reopens instead of retrying forever.
		if err := t.checkRotated(); err != nil {
			return Record{}, err
		}
		if bounded {
			// The frontier says these bytes are durable, yet they are
			// not all visible/valid: the frame can never complete.
			return Record{}, fmt.Errorf("%w: torn frame below durable frontier at offset %d", ErrCorrupt, t.offset)
		}
		return Record{}, ErrIncompleteTail
	}

	n, err := t.f.ReadAt(t.header[:], t.offset)
	if err == io.EOF && n == 0 {
		if rerr := t.checkRotated(); rerr != nil {
			return Record{}, rerr
		}
		return Record{}, io.EOF
	}
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if n < headerBytes {
		return incomplete()
	}
	length := binary.LittleEndian.Uint32(t.header[0:4])
	sum := binary.LittleEndian.Uint32(t.header[4:8])
	if length == 0 || length > maxRecordBytes {
		return Record{}, fmt.Errorf("%w: invalid length %d at offset %d", ErrCorrupt, length, t.offset)
	}
	end := t.offset + int64(headerBytes) + int64(length)
	if bounded && end > durable {
		// The frame extends past the durable frontier: whatever bytes
		// are visible, it is not committed yet.
		return Record{}, ErrIncompleteTail
	}
	if cap(t.payload) < int(length) {
		t.payload = make([]byte, length)
	}
	t.payload = t.payload[:length]
	if n, err := t.f.ReadAt(t.payload, t.offset+headerBytes); err != nil || n < int(length) {
		if err != nil && err != io.EOF {
			return Record{}, err
		}
		return incomplete()
	}
	if crc32.ChecksumIEEE(t.payload) != sum {
		if !bounded {
			// The payload bytes may still be landing in a concurrent
			// append — but only for the final frame. A mismatching frame
			// with bytes after it was finished by the writer and then
			// damaged.
			st, serr := t.f.Stat()
			if serr != nil {
				return Record{}, serr
			}
			if st.Size() <= end {
				return Record{}, ErrIncompleteTail
			}
		}
		return Record{}, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, t.offset)
	}
	rec, err := parsePayload(t.payload)
	if err != nil {
		return Record{}, fmt.Errorf("%w at offset %d", err, t.offset)
	}
	if rec.LSN <= t.prevLSN {
		return Record{}, fmt.Errorf("%w: LSN %d at offset %d does not advance past %d", ErrCorrupt, rec.LSN, t.offset, t.prevLSN)
	}
	t.prevLSN = rec.LSN
	t.offset = end
	return rec, nil
}

// checkRotated stats the file and reports ErrRotated if it shrank below
// the reader's position.
func (t *TailReader) checkRotated() error {
	st, err := t.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < t.offset {
		return ErrRotated
	}
	return nil
}
