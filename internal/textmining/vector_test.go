package textmining

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVectorOf(t *testing.T) {
	v := VectorOf("swan swan goose")
	if v["swan"] != 2 || v["goose"] != 1 {
		t.Errorf("VectorOf = %v", v)
	}
}

func TestVectorAddProperty(t *testing.T) {
	f := func(aw, bw []uint8) bool {
		a, b := NewVector(), NewVector()
		terms := []string{"t0", "t1", "t2", "t3", "t4"}
		for i, w := range aw {
			a[terms[i%len(terms)]] += float64(w%7) + 1
		}
		for i, w := range bw {
			b[terms[(i+2)%len(terms)]] += float64(w%7) + 1
		}
		sum := a.Clone()
		sum.Add(b)
		for _, k := range terms {
			if sum[k] != a[k]+b[k] {
				return false
			}
		}
		return len(sum) >= len(a) && len(sum) >= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCosine(t *testing.T) {
	a := VectorOf("swan lake feeding")
	b := VectorOf("swan lake feeding")
	if got := Cosine(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("Cosine(identical) = %g, want 1", got)
	}
	c := VectorOf("disease virus infection")
	if got := Cosine(a, c); got != 0 {
		t.Errorf("Cosine(disjoint) = %g, want 0", got)
	}
	if got := Cosine(NewVector(), a); got != 0 {
		t.Errorf("Cosine(empty, x) = %g, want 0", got)
	}
}

func TestCosineSymmetryAndRangeProperty(t *testing.T) {
	texts := []string{
		"swan feeding on stonewort", "goose observed near lake",
		"wing anatomy measurement", "avian influenza outbreak",
		"swan swan goose lake", "feeding behavior at dawn",
	}
	f := func(i, j uint8) bool {
		a := VectorOf(texts[int(i)%len(texts)])
		b := VectorOf(texts[int(j)%len(texts)])
		s1, s2 := Cosine(a, b), Cosine(b, a)
		return math.Abs(s1-s2) < 1e-12 && s1 >= 0 && s1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopTermsAndPrune(t *testing.T) {
	v := Vector{"a": 3, "b": 1, "c": 2, "d": 2}
	got := v.TopTerms(3)
	want := []string{"a", "c", "d"} // ties broken alphabetically
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopTerms = %v, want %v", got, want)
	}
	v.Prune(2)
	if len(v) != 2 || v["a"] != 3 || v["c"] != 2 {
		t.Errorf("after Prune(2): %v", v)
	}
	v.Prune(10) // no-op when already small
	if len(v) != 2 {
		t.Errorf("Prune(10) changed size: %v", v)
	}
}

func TestVectorNormDot(t *testing.T) {
	v := Vector{"x": 6, "y": 8}
	if got := v.Norm(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Norm = %g, want 10", got)
	}
	u := Vector{"y": 1, "z": 9}
	if got := v.Dot(u); got != 8 {
		t.Errorf("Dot = %g, want 8", got)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{"b": 1, "a": 2}
	if got := v.String(); got != "{a b}" {
		t.Errorf("String = %q", got)
	}
}

func TestPruneDeterministic(t *testing.T) {
	// Prune must be order-independent: same multiset of weights → same kept set.
	r := rand.New(rand.NewSource(1))
	base := Vector{}
	for i := 0; i < 50; i++ {
		base[Terms("term" + string(rune('a'+i%26)))[0]+string(rune('0'+i/26))] = float64(r.Intn(10) + 1)
	}
	a, b := base.Clone(), base.Clone()
	a.Prune(10)
	b.Prune(10)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Prune nondeterministic: %v vs %v", a, b)
	}
}
