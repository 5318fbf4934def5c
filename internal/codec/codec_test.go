package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"insightnotes/internal/types"
)

// sample writes one of every primitive; TestRoundTrip reads them back in the
// same order.
func sample() []byte {
	w := NewWriter(nil)
	w.Byte(0xA5)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Varint(-42)
	w.Bool(true)
	w.Bool(false)
	for _, x := range sampleFloats {
		w.Float64(x)
	}
	w.Str("")
	w.Str("naïve café")
	w.Str("skipped")
	w.Uvarint(2) // a count of two 1-byte elements
	w.Byte(1)
	w.Byte(2)
	w.Tuple(types.Tuple{types.NewInt(-7), types.NewString("Swan Goose"), types.NewFloat(1.8), types.Null(), types.NewBool(true)})
	w.Tuple(nil)
	mark := w.BeginSection()
	w.Str("inside")
	w.EndSection(mark)
	w.Section([]byte("raw section"))
	w.Raw([]byte{9, 9})
	return w.Bytes()
}

// sampleFloats are the floats sample writes: whole, fractional, signed
// zero, infinite and NaN.
var sampleFloats = []float64{0, 3, -0.5, 0.3, math.Copysign(0, -1), math.Inf(1), math.NaN()}

func TestRoundTrip(t *testing.T) {
	buf := sample()
	r := NewReader(buf)
	if got := r.Byte(); got != 0xA5 {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool did not read true, false")
	}
	for _, x := range sampleFloats {
		if got := r.Float64(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("Float64 = %v, want %v", got, x)
		}
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := r.Str(); got != "naïve café" {
		t.Errorf("Str = %q", got)
	}
	r.SkipStr()
	if n := r.Count(1); n != 2 || r.Byte() != 1 || r.Byte() != 2 {
		t.Errorf("Count = %d, or its elements misread", n)
	}
	if got := r.Tuple(); got.String() != "(-7, Swan Goose, 1.8, NULL, true)" {
		t.Errorf("Tuple = %s", got)
	}
	if got := r.Tuple(); got != nil {
		t.Errorf("empty Tuple = %v, want nil", got)
	}
	inner := NewReader(r.Section())
	if got := inner.Str(); got != "inside" || inner.Done() != nil {
		t.Errorf("BeginSection/EndSection section = %q, %v", got, inner.Done())
	}
	if got := string(r.Section()); got != "raw section" {
		t.Errorf("Section = %q", got)
	}
	if r.Byte() != 9 || r.Byte() != 9 {
		t.Error("Raw bytes misread")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// TestReaderRejectsOverruns: counts and lengths beyond the bytes left, short
// input and out-of-range values fail with ErrCorrupt, and the failure is
// sticky.
func TestReaderRejectsOverruns(t *testing.T) {
	w := NewWriter(nil)
	w.Uvarint(3) // 3 elements of at least 2 bytes need 6 bytes; 5 follow
	w.Raw([]byte{1, 2, 3, 4, 5})
	cases := []struct {
		name string
		buf  []byte
		read func(r *Reader)
	}{
		{"CountPastEnd", w.Bytes(), func(r *Reader) { r.Count(2) }},
		{"CountHuge", binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Count(0) }},
		{"StrPastEnd", []byte{5, 'a', 'b'}, func(r *Reader) { r.Str() }},
		{"SkipStrPastEnd", []byte{3, 'a'}, func(r *Reader) { r.SkipStr() }},
		{"StrHugeLength", binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Str() }},
		{"SectionPastEnd", []byte{10, 0, 0, 0, 1}, func(r *Reader) { r.Section() }},
		{"SectionShortHeader", []byte{1, 0}, func(r *Reader) { r.Section() }},
		{"Truncated", nil, func(r *Reader) { r.Byte() }},
		{"BadUvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		{"BadVarint", []byte{0xff}, func(r *Reader) { r.Varint() }},
		{"BadBool", []byte{2}, func(r *Reader) { r.Bool() }},
		{"BadTuple", []byte{0xff, 0xff, 0xff}, func(r *Reader) { r.Tuple() }},
		{"TrailingBytes", []byte{1, 2}, func(r *Reader) { r.Byte(); r.Done() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.buf)
			tc.read(r)
			if !errors.Is(r.Err(), ErrCorrupt) {
				t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
			}
			off := r.off
			if r.Byte() != 0 || r.Uvarint() != 0 || r.Str() != "" || r.Count(1) != 0 || r.Section() != nil || r.off != off {
				t.Error("a Reader kept reading after its first failure")
			}
		})
	}
}

// readOps is every Reader method, each checking that what it hands out fits
// in the bytes that were left when it was called.
var readOps = []func(t *testing.T, r *Reader){
	func(t *testing.T, r *Reader) { r.Byte() },
	func(t *testing.T, r *Reader) { r.Uvarint() },
	func(t *testing.T, r *Reader) { r.Varint() },
	func(t *testing.T, r *Reader) { r.Int() },
	func(t *testing.T, r *Reader) { r.Bool() },
	func(t *testing.T, r *Reader) {
		if left, s := r.remaining(), r.Str(); len(s) > left {
			t.Fatalf("Str of %d bytes from %d left", len(s), left)
		}
	},
	func(t *testing.T, r *Reader) { r.SkipStr() },
	func(t *testing.T, r *Reader) {
		if n := r.Count(0); n > r.remaining() {
			t.Fatalf("Count(0) = %d with %d bytes left", n, r.remaining())
		}
	},
	func(t *testing.T, r *Reader) {
		if n := r.Count(16); n*16 > r.remaining() {
			t.Fatalf("Count(16) = %d with %d bytes left", n, r.remaining())
		}
	},
	func(t *testing.T, r *Reader) { r.Tuple() },
	func(t *testing.T, r *Reader) {
		if left, b := r.remaining(), r.Section(); len(b) > left {
			t.Fatalf("Section of %d bytes from %d left", len(b), left)
		}
	},
	func(t *testing.T, r *Reader) { r.Done() },
	func(t *testing.T, r *Reader) { r.Float64() },
}

// FuzzCodec runs arbitrary bytes through a sequence of Reader methods that
// ops picks: no method may panic, read past the buffer, keep reading after a
// failure, fail with anything but ErrCorrupt, or allocate more than a small
// multiple of the input.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 3, 4, 4, 5, 5, 6, 7, 0, 0, 9, 9, 10, 10, 0, 0, 11}, sample())
	f.Add([]byte{7, 8, 5, 10}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, op := range ops {
			failed, off := r.Err() != nil, r.off
			readOps[int(op)%len(readOps)](t, r)
			if r.off > len(data) || failed && r.off != off {
				t.Fatalf("offset %d of %d after op %d (failed before: %v)", r.off, len(data), op, failed)
			}
		}
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err := r.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Err = %v, want ErrCorrupt", err)
		}
	})
}
