package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Frames carry codec-encoded messages over a stream — the client/server
// wire and the replication stream:
//
//	uint32   big-endian length of what follows (kind byte + body)
//	byte     kind: the protocol's version and message type
//	body     the message
//
// The length is checked against the reader's cap before the frame is read.
const (
	// FrameHeader is the length and kind bytes before a frame's body.
	FrameHeader = 5

	// MaxFrameCap bounds every frame cap: a length whose first byte is
	// 0x40 or more is always too large, so any printable first byte is.
	MaxFrameCap = 1 << 30
)

// ErrFrameTooLarge reports a length prefix above the reader's cap; the
// stream position is lost with it.
var ErrFrameTooLarge = errors.New("frame exceeds the size cap")

// FrameReader reads frames from a stream into one reused buffer: a frame's
// body is valid until the next call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	max int
}

// NewFrameReader reads frames of at most max bytes (capped at MaxFrameCap)
// from r.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 32<<10), max: min(max, MaxFrameCap)}
}

// Next reads one frame and returns its kind byte and body.
func (fr *FrameReader) Next() (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if int(hdr[0])<<24 > fr.max {
		return 0, nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	switch {
	case n > fr.max:
		return 0, nil, ErrFrameTooLarge
	case n == 0:
		return 0, nil, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	fr.buf = slices.Grow(fr.buf[:0], n)[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return fr.buf[0], fr.buf[1:], nil
}

// BeginFrame starts a frame of the given kind in dst (truncated).
func BeginFrame(dst []byte, kind byte) *Writer {
	return NewWriter(append(dst[:0], 0, 0, 0, 0, kind))
}

// EndFrame sets the length of the frame w holds and returns it.
func EndFrame(w *Writer) []byte {
	b := w.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}
