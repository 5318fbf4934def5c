package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"insightnotes/internal/types"
)

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestEncodeKeyPreservesOrder(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.NewInt(-100), types.NewInt(-1), types.NewInt(0), types.NewInt(1), types.NewInt(100),
		types.NewFloat(-2.5), types.NewFloat(-0.5), types.NewFloat(0.5), types.NewFloat(99.9),
		types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"),
		types.NewString("swan"), types.NewString("swan goose"),
		types.NewBool(false), types.NewBool(true),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka := EncodeKey(nil, a)
			kb := EncodeKey(nil, b)
			if got, want := sign(bytes.Compare(ka, kb)), sign(types.Compare(a, b)); got != want {
				t.Errorf("order mismatch: %v vs %v: bytes %d, values %d", a, b, got, want)
			}
		}
	}
}

// randomValue builds an arbitrary Value for property tests.
func randomValue(r *rand.Rand) types.Value {
	switch r.Intn(5) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(r.Int63n(2000) - 1000)
	case 2:
		return types.NewFloat(r.Float64()*200 - 100)
	case 3:
		letters := []byte("ab\x00cde")
		b := make([]byte, r.Intn(10))
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return types.NewString(string(b))
	default:
		return types.NewBool(r.Intn(2) == 0)
	}
}

func TestEncodeKeyOrderProperty(t *testing.T) {
	f := func(a, b types.Value) bool {
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		return sign(bytes.Compare(ka, kb)) == sign(types.Compare(a, b))
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r))
			args[1] = reflect.ValueOf(randomValue(r))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyIntFloatEquivalence(t *testing.T) {
	// INT n and FLOAT n compare equal, so they must encode identically.
	f := func(n int32) bool {
		ki := EncodeKey(nil, types.NewInt(int64(n)))
		kf := EncodeKey(nil, types.NewFloat(float64(n)))
		return bytes.Equal(ki, kf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyStringsWithNulBytes(t *testing.T) {
	a := types.NewString("a\x00b")
	b := types.NewString("a\x00c")
	c := types.NewString("a")
	ka, kb, kc := EncodeKey(nil, a), EncodeKey(nil, b), EncodeKey(nil, c)
	if bytes.Compare(ka, kb) >= 0 {
		t.Error("NUL-containing strings misordered")
	}
	if bytes.Compare(kc, ka) >= 0 {
		t.Error("prefix string must sort before its extensions")
	}
}

func TestCompositeKeyOrder(t *testing.T) {
	// ("a", 2) < ("a", 10) < ("b", 1): composite order is lexicographic by
	// component value, not by raw bytes of concatenated strings.
	k1 := encodeTuple(types.NewString("a"), types.NewInt(2))
	k2 := encodeTuple(types.NewString("a"), types.NewInt(10))
	k3 := encodeTuple(types.NewString("b"), types.NewInt(1))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Errorf("composite order broken: %x %x %x", k1, k2, k3)
	}
	// No-prefix property: "ab" as one string vs ("a","b") composite differ.
	s1 := encodeTuple(types.NewString("ab"))
	s2 := encodeTuple(types.NewString("a"), types.NewString("b"))
	if bytes.Equal(s1, s2) {
		t.Error("composite encoding ambiguous")
	}
}

func TestBTreeWithEncodedKeysRangeScan(t *testing.T) {
	bt := NewBTree()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := types.NewInt(int64(r.Intn(100)))
		bt.Insert(EncodeKey(nil, v), uint64(i))
	}
	// Range scan [10, 20) over encoded int keys.
	lo := EncodeKey(nil, types.NewInt(10))
	hi := EncodeKey(nil, types.NewInt(20))
	n := 0
	bt.Scan(lo, hi, func(k []byte, _ uint64) bool {
		n++
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Fatal("scan returned key outside range")
		}
		return true
	})
	if n == 0 {
		t.Error("range scan found nothing (statistically impossible)")
	}
}
