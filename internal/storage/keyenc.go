package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"insightnotes/internal/types"
)

// Order-preserving key encoding: for any two values a, b of the engine's
// comparison order (types.Compare), bytes.Compare(EncodeKey(a), EncodeKey(b))
// agrees in sign. This lets the B+tree index any column with plain byte
// comparisons.
//
// Layout per value: 1 tag byte establishing the cross-kind order used by
// types.Compare (NULL < numerics < TEXT < BOOL), then a payload:
//
//	NULL    — nothing
//	numeric — 8 bytes: IEEE-754 bits of the float64 value with the sign bit
//	          flipped for positives and all bits flipped for negatives
//	          (the classic total-order float trick); INT is widened so that
//	          INT 2 and FLOAT 2.0 encode identically, matching Compare.
//	TEXT    — escaped bytes (0x00 → 0x00 0xFF) followed by 0x00 0x00, so no
//	          encoded string is a prefix of another
//	BOOL    — 1 byte
const (
	tagNull    = 0x10
	tagNumeric = 0x20
	tagText    = 0x30
	tagBool    = 0x40
)

// EncodeKey appends the order-preserving encoding of v to dst.
func EncodeKey(dst []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindNull:
		return append(dst, tagNull)
	case types.KindInt, types.KindFloat:
		dst = append(dst, tagNumeric)
		return appendOrderedFloat(dst, v.Float())
	case types.KindString:
		dst = append(dst, tagText)
		for i := 0; i < len(v.Str()); i++ {
			b := v.Str()[i]
			dst = append(dst, b)
			if b == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x00)
	case types.KindBool:
		dst = append(dst, tagBool)
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return dst
}

func appendOrderedFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip everything
	} else {
		bits |= 1 << 63 // non-negative: flip the sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

// ErrBadKey reports a malformed or truncated key encoding.
var ErrBadKey = errors.New("storage: malformed key encoding")

// DecodeKey decodes one value from the front of an encoded key, returning
// the value and the remaining bytes. Numeric keys decode as FLOAT: the
// encoding widens INT so that INT n and FLOAT n sort (and therefore
// decode) identically — callers comparing with types.Compare see no
// difference, which is the property the round-trip tests pin down.
func DecodeKey(b []byte) (types.Value, []byte, error) {
	if len(b) == 0 {
		return types.Value{}, nil, ErrBadKey
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNull:
		return types.Null(), b, nil
	case tagNumeric:
		if len(b) < 8 {
			return types.Value{}, nil, ErrBadKey
		}
		bits := binary.BigEndian.Uint64(b[:8])
		if bits&(1<<63) != 0 {
			bits ^= 1 << 63 // non-negative: the sign bit was flipped on
		} else {
			bits = ^bits // negative: every bit was flipped
		}
		return types.NewFloat(math.Float64frombits(bits)), b[8:], nil
	case tagText:
		var s []byte
		for {
			if len(b) < 2 {
				return types.Value{}, nil, ErrBadKey
			}
			if b[0] == 0x00 {
				if b[1] == 0x00 { // terminator
					return types.NewString(string(s)), b[2:], nil
				}
				if b[1] == 0xFF { // escaped NUL
					s = append(s, 0x00)
					b = b[2:]
					continue
				}
				return types.Value{}, nil, ErrBadKey
			}
			s = append(s, b[0])
			b = b[1:]
		}
	case tagBool:
		if len(b) < 1 {
			return types.Value{}, nil, ErrBadKey
		}
		return types.NewBool(b[0] != 0), b[1:], nil
	}
	return types.Value{}, nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadKey, tag)
}
