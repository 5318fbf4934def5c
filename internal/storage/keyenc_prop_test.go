package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"insightnotes/internal/types"
)

// randValue draws a random value covering every kind the key encoding
// supports, biased toward collision-prone inputs (small ints, shared
// string prefixes, embedded NULs) so ties and near-ties are exercised.
func randValue(rng *rand.Rand) types.Value {
	switch rng.Intn(10) {
	case 0:
		return types.Null()
	case 1:
		return types.NewBool(rng.Intn(2) == 0)
	case 2, 3:
		return types.NewInt(int64(rng.Intn(7) - 3))
	case 4:
		return types.NewInt(rng.Int63() - rng.Int63())
	case 5:
		return types.NewFloat((rng.Float64() - 0.5) * 1e6)
	case 6:
		// Exact-int floats collide with KindInt encodings on purpose.
		return types.NewFloat(float64(rng.Intn(7) - 3))
	default:
		alphabet := []string{"", "a", "ab", "b", "\x00", "a\x00", "a\x00b", "a\xffz", "annotation"}
		s := alphabet[rng.Intn(len(alphabet))]
		if rng.Intn(3) == 0 {
			s += string(rune('a' + rng.Intn(3)))
		}
		return types.NewString(s)
	}
}

// compareTuples is the logical lexicographic order of two equal-arity
// composite keys under the engine's value ordering.
func compareTuples(a, b []types.Value) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// encodeTuple concatenates the key encodings of vs: the encoding is
// self-delimiting, so the result orders like the tuple of values.
func encodeTuple(vs ...types.Value) []byte {
	var out []byte
	for _, v := range vs {
		out = EncodeKey(out, v)
	}
	return out
}

// decodeTuple decodes every value of a concatenated key, failing on
// trailing garbage.
func decodeTuple(b []byte) ([]types.Value, error) {
	var out []types.Value
	for len(b) > 0 {
		v, rest, err := DecodeKey(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = rest
	}
	return out, nil
}

// TestKeyEncodingOrderProperty is the property the B+tree range scans rely
// on: for random concatenated keys, bytes.Compare over the encodings agrees
// in sign with the logical lexicographic value order.
func TestKeyEncodingOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		arity := 1 + rng.Intn(3)
		a := make([]types.Value, arity)
		b := make([]types.Value, arity)
		for i := range a {
			a[i] = randValue(rng)
			if rng.Intn(3) == 0 {
				b[i] = a[i] // force component ties
			} else {
				b[i] = randValue(rng)
			}
		}
		ea := encodeTuple(a...)
		eb := encodeTuple(b...)
		want := sign(compareTuples(a, b))
		got := sign(bytes.Compare(ea, eb))
		if got != want {
			t.Fatalf("order mismatch: %v vs %v: logical %d, encoded %d\n% x\n% x",
				a, b, want, got, ea, eb)
		}
	}
}

// TestKeyEncodingRoundTripProperty checks that random composite keys decode
// back to values that compare equal to the originals (numerics come back as
// FLOAT, which Compare treats as identical to the INT they widened from).
func TestKeyEncodingRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 20000; iter++ {
		arity := 1 + rng.Intn(4)
		vs := make([]types.Value, arity)
		for i := range vs {
			vs[i] = randValue(rng)
		}
		enc := encodeTuple(vs...)
		dec, err := decodeTuple(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", vs, err)
		}
		if len(dec) != len(vs) {
			t.Fatalf("decode %v: arity %d, want %d", vs, len(dec), len(vs))
		}
		for i := range vs {
			if types.Compare(vs[i], dec[i]) != 0 {
				t.Fatalf("round-trip %v: component %d decoded as %v", vs, i, dec[i])
			}
		}
	}
}

// TestKeyEncodingPrefixOrder pins the prefix rule of concatenated keys: a
// key that extends another with more components sorts strictly after it.
func TestKeyEncodingPrefixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 5000; iter++ {
		arity := 1 + rng.Intn(3)
		vs := make([]types.Value, arity+1)
		for i := range vs {
			vs[i] = randValue(rng)
		}
		short := encodeTuple(vs[:arity]...)
		long := encodeTuple(vs...)
		if bytes.Compare(short, long) >= 0 {
			t.Fatalf("prefix %v not < extension %v", vs[:arity], vs)
		}
	}
}

// TestDecodeKeyRejectsGarbage covers the malformed-input paths.
func TestDecodeKeyRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{},                    // empty
		{0x99},                // unknown tag
		{tagNumeric, 1, 2},    // truncated numeric
		{tagText, 'a'},        // unterminated text
		{tagText, 0x00, 0x42}, // invalid escape
		{tagBool},             // missing bool payload
	}
	for _, b := range bad {
		if _, _, err := DecodeKey(b); err == nil {
			t.Errorf("DecodeKey(% x) accepted garbage", b)
		}
	}
	// Trailing garbage after a valid component fails the tuple decode.
	enc := EncodeKey(nil, types.NewInt(7))
	if _, err := decodeTuple(append(enc, 0x99)); err == nil {
		t.Error("decodeTuple accepted trailing garbage")
	}
}
