// Package codec is the repository's binary encoding: the frames between
// server.Client and server.Server, the zoom-in cache's spill entries, and
// WAL records and their payloads. A Writer appends primitives to a byte
// slice; a Reader consumes them with a sticky error, so a decoder reads a
// whole structure and checks Err once. Every count and length a Reader hands out has been checked
// against the bytes left in its buffer, so a corrupt or hostile input can
// neither index past the end nor make the caller allocate more than the
// input could describe.
//
// Primitives:
//
//	Uvarint, Varint  binary.AppendUvarint / AppendVarint
//	Float64          the IEEE-754 bits byte-reversed, as a uvarint, so the
//	                 zero low mantissa bytes of a count cost nothing: 3.0
//	                 takes 2 bytes
//	Str              uvarint length, then the bytes
//	Bool             one byte, 0 or 1
//	Tuple            types.EncodeTuple
//	Section          4-byte little-endian length, then the bytes; the
//	                 length is patched after the body is written
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"insightnotes/internal/types"
)

// ErrCorrupt is the sticky error of a Reader that ran past its buffer or
// met a value no Writer produces.
var ErrCorrupt = errors.New("codec: corrupt input")

// Writer appends encoded primitives to a byte slice. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer appending to buf (which may be nil or a
// reused slice truncated to the length to keep).
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends x as a uvarint.
func (w *Writer) Uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Varint appends x as a zig-zag varint.
func (w *Writer) Varint(x int64) { w.buf = binary.AppendVarint(w.buf, x) }

// Float64 appends x exactly, NaN payloads included.
func (w *Writer) Float64(x float64) { w.Uvarint(bits.ReverseBytes64(math.Float64bits(x))) }

// Bool appends b as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Str appends s with its length.
func (w *Writer) Str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Tuple appends t in the storage engine's tuple encoding.
func (w *Writer) Tuple(t types.Tuple) { w.buf = types.EncodeTuple(w.buf, t) }

// Raw appends b as is, with no length.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// BeginSection reserves a section's 4-byte length and returns the mark
// EndSection patches it at.
func (w *Writer) BeginSection() int {
	w.buf = append(w.buf, 0, 0, 0, 0)
	return len(w.buf)
}

// EndSection sets the length reserved at mark to the bytes written since.
func (w *Writer) EndSection(mark int) {
	binary.LittleEndian.PutUint32(w.buf[mark-4:mark], uint32(len(w.buf)-mark))
}

// Section appends b as a section: its 4-byte length, then b.
func (w *Writer) Section(b []byte) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes primitives from a byte slice. After the first failure
// every method returns a zero value and Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// remaining returns the number of unread bytes.
func (r *Reader) remaining() int { return len(r.buf) - r.off }

// Fail records err as the Reader's failure unless one is recorded already.
// Decoders use it for values that parse but are out of range.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.Fail(fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...))
}

// Done returns Err, or an error when bytes are left unread: a decoder that
// consumed less than its input misread it.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.failf("%d trailing byte(s)", len(r.buf)-r.off)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.failf("truncated at byte %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Float64 reads a float written by Writer.Float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(bits.ReverseBytes64(r.Uvarint())) }

// Int reads a varint that must fit an int.
func (r *Reader) Int() int {
	x := r.Varint()
	if int64(int(x)) != x {
		r.failf("integer %d out of range", x)
		return 0
	}
	return int(x)
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.failf("bool byte %d", b)
		return false
	}
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	return string(r.take(r.length()))
}

// SkipStr steps over a length-prefixed string without copying it.
func (r *Reader) SkipStr() { r.take(r.length()) }

// Count reads an element count and checks it against the bytes left, each
// element taking at least minBytes (at least 1). A caller may allocate
// Count elements: the input holds at least that many bytes for them.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/max(minBytes, 1)) {
		r.failf("count %d exceeds the %d byte(s) left", n, r.remaining())
		return 0
	}
	return int(n)
}

// Tuple reads a tuple in the storage engine's encoding. An empty tuple
// reads as nil, so a decoded value survives re-encoding unchanged.
func (r *Reader) Tuple() types.Tuple {
	if r.err != nil {
		return nil
	}
	t, n, err := types.DecodeTuple(r.buf[r.off:])
	if err != nil {
		r.Fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return nil
	}
	r.off += n
	if len(t) == 0 {
		return nil
	}
	return t
}

// Rest consumes every unread byte and returns them, aliasing the Reader's
// buffer: the opaque tail of a structure whose layout another decoder owns.
func (r *Reader) Rest() []byte { return r.take(r.remaining()) }

// Section reads a section written by Section or BeginSection/EndSection
// and returns its bytes, aliasing the Reader's buffer.
func (r *Reader) Section() []byte {
	b := r.take(4)
	if b == nil {
		return nil
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(r.remaining()) {
		r.failf("section of %d byte(s) exceeds the %d left", n, r.remaining())
		return nil
	}
	return r.take(int(n))
}

// length reads a byte count bounded by the bytes left (-1 on failure).
func (r *Reader) length() int {
	n := r.Uvarint()
	if r.err != nil {
		return -1
	}
	if n > uint64(r.remaining()) {
		r.failf("length %d exceeds the %d byte(s) left", n, r.remaining())
		return -1
	}
	return int(n)
}

// take consumes n bytes and returns them, aliasing the buffer; nil (with
// the failure recorded) when fewer are left or n is negative.
func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 {
		return nil
	}
	if n > r.remaining() {
		r.failf("truncated: %d byte(s) wanted at byte %d, %d left", n, r.off, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}
