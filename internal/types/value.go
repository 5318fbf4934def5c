// Package types defines the relational value model shared by every layer of
// the InsightNotes engine: typed scalar values, tuples, schemas, and row
// identities. It is deliberately dependency-free so that the storage engine,
// the executor, and the summary algebra can all exchange data without
// conversion.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 floating point number.
	KindFloat
	// KindString is an arbitrary-length UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name into a Kind. It accepts the common
// aliases used in CREATE TABLE statements.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "INT4", "INT8", "SERIAL":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL", "FLOAT8":
		return KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single scalar datum. The zero Value is NULL.
//
// Value is a small immutable struct passed by value throughout the engine;
// only one of the payload fields is meaningful, selected by Kind.
type Value struct {
	kind Kind
	b    bool // beside kind, in its padding: a Value is 40 bytes, not 48
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a TEXT value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload, coercing INT to FLOAT. It panics for
// other kinds.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
}

// Str returns the string payload. It panics if the value is not TEXT.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.b
}

// numericKinds reports whether both kinds are numeric (INT or FLOAT).
func numericKinds(a, b Kind) bool {
	return (a == KindInt || a == KindFloat) && (b == KindInt || b == KindFloat)
}

// Compare orders two values. NULL sorts before every non-NULL value; values
// of different non-numeric kinds are ordered by Kind to give a stable total
// order. Numeric kinds compare by value with INT widened to FLOAT as needed.
// The result is -1, 0, or +1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind != b.kind {
		if numericKinds(a.kind, b.kind) {
			return compareFloat(a.Float(), b.Float())
		}
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	case KindFloat:
		return compareFloat(a.f, b.f)
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare semantics.
// Note that, as in SQL DISTINCT/GROUP BY semantics, NULL equals NULL here.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit FNV-1a hash of the value such that Equal values
// hash equally (including the INT/FLOAT widening rule). It allocates
// nothing, so hashing a join or grouping key per row costs no garbage.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	switch v.kind {
	case KindNull:
		h = fnvByte(h, 0)
	case KindInt:
		h = fnvFloat(h, float64(v.i))
	case KindFloat:
		h = fnvFloat(h, v.f)
	case KindString:
		h = fnvByte(h, 3)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
	case KindBool:
		var b byte
		if v.b {
			b = 1
		}
		h = fnvByte(fnvByte(h, 4), b)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvFloat hashes a tag byte 2 and the float's bits, low byte first.
func fnvFloat(h uint64, f float64) uint64 {
	bits := math.Float64bits(f)
	h = fnvByte(h, 2)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(bits>>(8*i)))
	}
	return h
}

// String renders the value for display. Strings are returned verbatim
// (without quotes); use SQLString for a parseable literal.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

// SQLString renders the value as a SQL literal that the engine's parser can
// read back as the same value: a float is written without an exponent and
// with a decimal point, which the lexer needs to read a FLOAT.
func (v Value) SQLString() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		if math.Trunc(v.f) == v.f && !math.IsInf(v.f, 0) {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// Truthy interprets the value as a WHERE-clause condition result: only a
// BOOL true is truthy; NULL and every non-BOOL value are falsy.
func (v Value) Truthy() bool { return v.kind == KindBool && v.b }
