package types

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "TEXT",
		KindBool:   "BOOL",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	good := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "BigInt": KindInt,
		"float": KindFloat, "DOUBLE": KindFloat, "real": KindFloat,
		"text": KindString, "VARCHAR": KindString, " string ": KindString,
		"bool": KindBool, "BOOLEAN": KindBool,
	}
	for name, want := range good {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v, nil", name, got, err, want)
		}
	}
	if _, err := KindFromName("blob"); err == nil {
		t.Error("KindFromName(blob) succeeded, want error")
	}
}

// A Value is 40 bytes on 64-bit hosts: the bool shares kind's padding
// word. Every stored tuple and every live zoom-in result holds Values, so
// a field added in the wrong place grows all of them by a fifth.
func TestValueIs40Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("NewInt(42).Int() = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("NewFloat(2.5).Float() = %g", got)
	}
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("NewInt(3).Float() = %g, want 3 (INT widens)", got)
	}
	if got := NewString("hi").Str(); got != "hi" {
		t.Errorf("NewString(hi).Str() = %q", got)
	}
	if !NewBool(true).Bool() {
		t.Error("NewBool(true).Bool() = false")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on TEXT", func() { NewString("x").Int() })
	mustPanic("Str on INT", func() { NewInt(1).Str() })
	mustPanic("Bool on NULL", func() { Null().Bool() })
	mustPanic("Float on BOOL", func() { NewBool(true).Float() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(1.5), 0},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(2), NewFloat(1.5), 1}, // numeric widening
		{NewFloat(2.0), NewInt(2), 0}, // numeric widening equality
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewInt(1), NewString("1"), -1}, // cross-kind stable order
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualConsistencyProperty(t *testing.T) {
	// Equal values must hash equally, including INT/FLOAT widening.
	f := func(v int32) bool {
		a, b := NewInt(int64(v)), NewFloat(float64(v))
		return Equal(a, b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashIsFNV1a pins Value.Hash to hash/fnv's 64-bit FNV-1a over the
// value's tagged bytes, and checks that it allocates nothing.
func TestHashIsFNV1a(t *testing.T) {
	fnv1a := func(b ...byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	floatBytes := func(f float64) []byte {
		out := []byte{2}
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	for _, c := range []struct {
		v    Value
		want uint64
	}{
		{Null(), fnv1a(0)},
		{NewInt(-7), fnv1a(floatBytes(-7)...)},
		{NewFloat(2.5), fnv1a(floatBytes(2.5)...)},
		{NewString("swan"), fnv1a(append([]byte{3}, "swan"...)...)},
		{NewBool(false), fnv1a(4, 0)},
		{NewBool(true), fnv1a(4, 1)},
	} {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("%#v.Hash() = %x, want %x", c.v, got, c.want)
		}
	}
	v := NewString("a longer string value")
	if n := testing.AllocsPerRun(100, func() { _ = v.Hash() }); n != 0 {
		t.Errorf("Hash allocates %v times per call", n)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		s    string
		sqls string
	}{
		{Null(), "NULL", "NULL"},
		{NewInt(-7), "-7", "-7"},
		{NewFloat(1.25), "1.25", "1.25"},
		{NewFloat(2), "2", "2.0"},
		{NewFloat(1e6), "1e+06", "1000000.0"},
		{NewFloat(-0.5), "-0.5", "-0.5"},
		{NewString("o'brien"), "o'brien", "'o''brien'"},
		{NewBool(true), "true", "true"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.s {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.s)
		}
		if got := c.v.SQLString(); got != c.sqls {
			t.Errorf("%#v.SQLString() = %q, want %q", c.v, got, c.sqls)
		}
	}
}

func TestTruthy(t *testing.T) {
	if !NewBool(true).Truthy() {
		t.Error("true not truthy")
	}
	for _, v := range []Value{NewBool(false), Null(), NewInt(1), NewString("t")} {
		if v.Truthy() {
			t.Errorf("%v is truthy, want falsy", v)
		}
	}
}

// randomValue builds an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return NewInt(r.Int63n(1000) - 500)
	case 2:
		return NewFloat(r.Float64()*100 - 50)
	case 3:
		letters := []byte("abcdefg ")
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return NewString(string(b))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// Generate implements quick.Generator so quick.Check can produce Values.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Transitivity on arbitrary values: a<=b && b<=c => a<=c.
	f := func(a, b, c Value) bool {
		vs := []Value{a, b, c}
		// Sort the three by Compare and verify pairwise consistency.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if Compare(vs[i], vs[j]) != -Compare(vs[j], vs[i]) {
					return false
				}
			}
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
