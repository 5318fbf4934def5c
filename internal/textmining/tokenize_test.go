package textmining

import (
	"reflect"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Large one, having size!", []string{"large", "one", "having", "size"}},
		{"blue-gray wings; don't know", []string{"blue-gray", "wings", "don't", "know"}},
		{"", nil},
		{"...!!!", nil},
		{"A1 and B2", []string{"a1", "and", "b2"}},
		{"trailing- dash", []string{"trailing", "dash"}},
		{"UPPER Case MiXeD", []string{"upper", "case", "mixed"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"feeding":  "feed",
		"feeds":    "feed",
		"observed": "observ",
		"studies":  "study",
		"quickly":  "quick",
		"classes":  "class",
		"glass":    "glass", // -ss preserved
		"cat":      "cat",
		"cats":     "cat",
		"is":       "is",   // too short to strip
		"sing":     "sing", // too short for -ing rule
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTerms(t *testing.T) {
	got := Terms("The swan was observed feeding on stonewort in the lake")
	want := []string{"swan", "observ", "feed", "stonewort", "lake"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestIsStopWord(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "of"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false", w)
		}
	}
	for _, w := range []string{"swan", "disease", "wing"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true", w)
		}
	}
}

// The ASCII byte loop and the rune loop agree on every input; Tokenize
// takes the byte loop exactly when the input is ASCII.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "a--b", "don't-", "ÀB", "'lead", "-x-", "A'B'C", "x' y-",
		"Large one, having size!", "blue-gray wings; don't know", "UPPER Case MiXeD 42",
		"café au lait", "\xff\xfe broken", "tab\tsep\nline",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), tokenizeRunes(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, rune loop %q", s, got, want)
		}
	})
}
