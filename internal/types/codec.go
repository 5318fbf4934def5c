package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tuple wire format, used by the storage engine to persist rows inside
// slotted pages:
//
//	uvarint   column count
//	per value: 1 byte kind, then a kind-specific payload:
//	  NULL   — nothing
//	  INT    — varint
//	  FLOAT  — 8 bytes little-endian IEEE-754 bits
//	  TEXT   — uvarint length + bytes
//	  BOOL   — 1 byte

// EncodeTuple appends the wire encoding of t to dst and returns the
// extended slice.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt:
			dst = binary.AppendVarint(dst, v.i)
		case KindFloat:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.f))
			dst = append(dst, buf[:]...)
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case KindBool:
			if v.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// DecodeTuple parses one tuple from buf, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("types: corrupt tuple header")
	}
	off := sz
	if n > uint64(len(buf)-off) { // every value takes at least its kind byte
		return nil, 0, fmt.Errorf("types: tuple of %d values in %d bytes", n, len(buf)-off)
	}
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("types: truncated tuple at value %d", i)
		}
		kind := Kind(buf[off])
		off++
		switch kind {
		case KindNull:
			t = append(t, Null())
		case KindInt:
			v, sz := binary.Varint(buf[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("types: corrupt INT at value %d", i)
			}
			off += sz
			t = append(t, NewInt(v))
		case KindFloat:
			if off+8 > len(buf) {
				return nil, 0, fmt.Errorf("types: truncated FLOAT at value %d", i)
			}
			bits := binary.LittleEndian.Uint64(buf[off:])
			off += 8
			t = append(t, NewFloat(math.Float64frombits(bits)))
		case KindString:
			l, sz := binary.Uvarint(buf[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("types: corrupt TEXT length at value %d", i)
			}
			off += sz
			if l > uint64(len(buf)-off) {
				return nil, 0, fmt.Errorf("types: truncated TEXT at value %d", i)
			}
			t = append(t, NewString(string(buf[off:off+int(l)])))
			off += int(l)
		case KindBool:
			if off >= len(buf) {
				return nil, 0, fmt.Errorf("types: truncated BOOL at value %d", i)
			}
			t = append(t, NewBool(buf[off] != 0))
			off++
		default:
			return nil, 0, fmt.Errorf("types: unknown kind %d at value %d", kind, i)
		}
	}
	return t, off, nil
}

// EncodedSize returns the number of bytes EncodeTuple will produce for t.
func EncodedSize(t Tuple) int {
	// Cheap upper-bound-free computation by encoding into a scratch slice
	// would allocate; compute exactly instead.
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n++ // kind byte
		switch v.kind {
		case KindInt:
			n += varintLen(v.i)
		case KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.s))) + len(v.s)
		case KindBool:
			n++
		}
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}
