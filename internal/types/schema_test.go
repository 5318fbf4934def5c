package types

import (
	"testing"
	"testing/quick"
)

func birdSchema() Schema {
	return NewSchema(
		Column{Table: "birds", Name: "id", Kind: KindInt},
		Column{Table: "birds", Name: "name", Kind: KindString},
		Column{Table: "birds", Name: "wingspan", Kind: KindFloat},
	)
}

func TestColumnIndex(t *testing.T) {
	s := birdSchema()
	cases := []struct {
		ref  string
		want int
		ok   bool
	}{
		{"id", 0, true},
		{"birds.name", 1, true},
		{"BIRDS.WINGSPAN", 2, true}, // case-insensitive
		{"missing", 0, false},
		{"other.id", 0, false},
	}
	for _, c := range cases {
		got, err := s.ColumnIndex(c.ref)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ColumnIndex(%q) = %d, %v; want %d, nil", c.ref, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ColumnIndex(%q) succeeded, want error", c.ref)
		}
	}
}

func TestColumnIndexAmbiguous(t *testing.T) {
	s := NewSchema(
		Column{Table: "r", Name: "a", Kind: KindInt},
		Column{Table: "s", Name: "a", Kind: KindInt},
	)
	if _, err := s.ColumnIndex("a"); err == nil {
		t.Error("bare ambiguous reference resolved, want error")
	}
	if i, err := s.ColumnIndex("s.a"); err != nil || i != 1 {
		t.Errorf("qualified reference s.a = %d, %v; want 1, nil", i, err)
	}
}

func TestSchemaProjectConcatAlias(t *testing.T) {
	s := birdSchema()
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Columns[0].Name != "wingspan" || p.Columns[1].Name != "id" {
		t.Errorf("Project = %v", p)
	}
	c := s.Concat(p)
	if c.Len() != 5 {
		t.Errorf("Concat len = %d, want 5", c.Len())
	}
	a := s.WithTable("b")
	if a.Columns[0].Table != "b" || s.Columns[0].Table != "birds" {
		t.Error("WithTable must not mutate the receiver")
	}
	if got := a.Columns[1].QualifiedName(); got != "b.name" {
		t.Errorf("QualifiedName = %q", got)
	}
	if _, err := s.ColumnIndex("name"); err != nil {
		t.Errorf("ColumnIndex(name): %v", err)
	}
	if _, err := s.ColumnIndex("beak"); err == nil {
		t.Error("ColumnIndex(beak) resolved")
	}
}

func TestSchemaString(t *testing.T) {
	got := NewSchema(
		Column{Table: "t", Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
	).String()
	want := "(t.a INT, b TEXT)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTupleOps(t *testing.T) {
	tu := Tuple{NewInt(1), NewString("x"), NewFloat(2.5)}
	cl := tu.Clone()
	cl[0] = NewInt(9)
	if tu[0].Int() != 1 {
		t.Error("Clone shares backing array")
	}
	p := tu.Project([]int{2, 1})
	if p[0].Float() != 2.5 || p[1].Str() != "x" {
		t.Errorf("Project = %v", p)
	}
	c := tu.Concat(Tuple{NewBool(true)})
	if len(c) != 4 || !c[3].Bool() {
		t.Errorf("Concat = %v", c)
	}
	if got := tu.String(); got != "(1, x, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleEqualOnAndHash(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := Tuple{NewInt(1), NewString("y")}
	if !a.EqualOn(b, []int{0}) {
		t.Error("EqualOn idx 0 = false")
	}
	if a.EqualOn(b, nil) {
		t.Error("EqualOn all = true")
	}
	if a.Hash([]int{0}) != b.Hash([]int{0}) {
		t.Error("hash on equal projection differs")
	}
	if a.Hash(nil) == b.Hash(nil) {
		t.Error("hash collision on differing tuples (suspicious)")
	}
}

func TestSplitQualified(t *testing.T) {
	if tb, n := SplitQualified("r.a"); tb != "r" || n != "a" {
		t.Errorf("SplitQualified(r.a) = %q, %q", tb, n)
	}
	if tb, n := SplitQualified("a"); tb != "" || n != "a" {
		t.Errorf("SplitQualified(a) = %q, %q", tb, n)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(vs []Value) bool {
		tu := Tuple(vs)
		enc := EncodeTuple(nil, tu)
		if len(enc) != EncodedSize(tu) {
			return false
		}
		dec, n, err := DecodeTuple(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return dec.EqualOn(tu, nil) && sameKinds(dec, tu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sameKinds(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() {
			return false
		}
	}
	return true
}

func TestCodecCorruptInputs(t *testing.T) {
	tu := Tuple{NewInt(7), NewString("hello"), NewFloat(1.5), NewBool(true), Null()}
	enc := EncodeTuple(nil, tu)
	// Every strict prefix must fail or consume fewer bytes than a full tuple.
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeTuple(enc[:i]); err == nil {
			t.Errorf("DecodeTuple on %d-byte prefix succeeded", i)
		}
	}
	// Unknown kind byte.
	bad := []byte{1, 250}
	if _, _, err := DecodeTuple(bad); err == nil {
		t.Error("DecodeTuple with unknown kind succeeded")
	}
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("DecodeTuple(nil) succeeded")
	}
}

func TestCodecTrailingBytes(t *testing.T) {
	tu := Tuple{NewInt(1)}
	enc := EncodeTuple(nil, tu)
	enc = append(enc, 0xAB, 0xCD)
	dec, n, err := DecodeTuple(enc)
	if err != nil || n != len(enc)-2 || len(dec) != 1 {
		t.Errorf("DecodeTuple with trailing bytes = %v, %d, %v", dec, n, err)
	}
}
