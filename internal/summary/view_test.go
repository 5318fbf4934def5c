package summary

import (
	"strconv"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
)

// TestViewMutatorsLeaveLenderUnchanged runs every public mutator on a view
// (and, mirrored, on the lender while a view is held) and checks that the
// other side keeps its contents, and that an object the mutator did not
// change is still the very object the lender holds.
func TestViewMutatorsLeaveLenderUnchanged(t *testing.T) {
	other := func(t *testing.T, cls *Instance) *Envelope {
		o := NewEnvelope()
		addAnn(o, cls, ann(7, diseaseText(7)), annotation.Col(0))
		return o
	}
	cases := []struct {
		name string
		// mutate changes e; it returns the instances whose object it must
		// have changed (every other object must stay pointer-identical).
		mutate func(t *testing.T, e *Envelope, cls, clu, snp *Instance) []string
	}{
		{"Add", func(t *testing.T, e *Envelope, cls, _, _ *Instance) []string {
			addAnn(e, cls, ann(9, diseaseText(9)), annotation.Col(0))
			return []string{cls.Name}
		}},
		{"Project", func(t *testing.T, e *Envelope, cls, clu, snp *Instance) []string {
			e.Project([]int{0, 1}) // drops annotation 3 (cls, clu) and 4 (all of snp)
			return []string{cls.Name, clu.Name, snp.Name}
		}},
		{"ProjectKeepingEveryAnnotation", func(t *testing.T, e *Envelope, _, _, _ *Instance) []string {
			e.Project([]int{3, 2, 1, 0})
			return nil
		}},
		{"RemapColumns", func(t *testing.T, e *Envelope, _, _, snp *Instance) []string {
			e.RemapColumns([]annotation.ColSet{annotation.Col(0), annotation.Col(0), annotation.Col(1)})
			return []string{snp.Name}
		}},
		{"Merge", func(t *testing.T, e *Envelope, cls, _, _ *Instance) []string {
			e.Merge(other(t, cls), 4)
			return []string{cls.Name}
		}},
		{"Combine", func(t *testing.T, e *Envelope, cls, _, _ *Instance) []string {
			e.Combine(other(t, cls))
			return []string{cls.Name}
		}},
		{"RemoveAnnotation", func(t *testing.T, e *Envelope, _, _, snp *Instance) []string {
			e.RemoveAnnotation(4) // the document: only the snippet object holds it
			return []string{snp.Name}
		}},
		{"RemoveInstance", func(t *testing.T, e *Envelope, _, _, snp *Instance) []string {
			e.RemoveInstance(snp.Name)
			return []string{snp.Name}
		}},
		{"PruneCover", func(t *testing.T, e *Envelope, _, _, _ *Instance) []string {
			e.PruneCover()
			return nil
		}},
	}
	for _, tc := range cases {
		for _, side := range []string{"view", "lender"} {
			t.Run(tc.name+"/"+side, func(t *testing.T) {
				lender, cls, clu, snp := buildTupleEnvelope(t)
				want := lender.Clone()
				view := lender.View()
				mutated, held := view, lender
				if side == "lender" {
					mutated, held = lender, view
				}
				before := map[string]Object{}
				for name, obj := range held.Objects {
					before[name] = obj
				}
				changed := map[string]bool{}
				for _, name := range tc.mutate(t, mutated, cls, clu, snp) {
					changed[name] = true
				}
				if !held.Equal(want) {
					t.Errorf("the %s's mutator changed the other side:\n%s\nwant\n%s", side, held.Render(), want.Render())
				}
				for name, obj := range before {
					if held.Objects[name] != obj {
						t.Errorf("%s: the untouched side replaced its own object", name)
					}
					if got, ok := mutated.Objects[name]; ok && !changed[name] && got != obj {
						t.Errorf("%s: an object no mutator touched was copied", name)
					}
					if got := mutated.Objects[name]; changed[name] && got == obj {
						t.Errorf("%s: changed in place while shared", name)
					}
				}
			})
		}
	}
}

// TestMergeAdoptsSharedThenCopiesOnWrite: an object present only on the
// right of a merge is adopted, not copied, and a later mutation of either
// envelope leaves the other's object alone.
func TestMergeAdoptsSharedThenCopiesOnWrite(t *testing.T) {
	cls := classifierInstance(t, "C")
	right := NewEnvelope()
	addAnn(right, cls, ann(1, behaviorText(1)), annotation.Col(0))
	addAnn(right, cls, ann(2, diseaseText(2)), annotation.Col(0))
	left := NewEnvelope()
	left.Merge(right, 2)
	if left.Objects["C"] != right.Objects["C"] {
		t.Fatal("right-only object was copied by Merge")
	}
	want := right.Clone()
	left.RemoveAnnotation(1)
	if !right.Equal(want) {
		t.Errorf("mutating the adopter changed the donor: %s", right.Render())
	}
	wantLeft := left.Clone()
	right.RemoveAnnotation(2)
	if !left.Equal(wantLeft) {
		t.Errorf("mutating the donor changed the adopter: %s", left.Render())
	}
}

// TestCloneSharesNothing: Clone stays a deep copy even of a view.
func TestCloneSharesNothing(t *testing.T) {
	lender, _, _, _ := buildTupleEnvelope(t)
	cp := lender.View().Clone()
	for name, obj := range cp.Objects {
		if obj == lender.Objects[name] || obj.isShared() {
			t.Errorf("%s: Clone shares its object", name)
		}
	}
	cp.RemoveAnnotation(1)
	if lender.Object("ClassBird1").Len() != 3 {
		t.Error("mutating the clone changed the original")
	}
}

// TestWriteQuotedMatchesStrconv pins the fast path to what %q prints.
func TestWriteQuotedMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"", "size seems wrong", "found eating stonewort…", `say "hi"`, `back\slash`,
		"tab\there", "naïve café", "…leading", "bad\xffutf8", "del\x7f", "nul\x00", "日本語 text", "é\u200bzero-width", "\ufffd legit", "tail\xe2\x80",
	} {
		var b strings.Builder
		writeQuoted(&b, s)
		if want := strconv.Quote(s); b.String() != want {
			t.Errorf("writeQuoted(%q) = %s, want %s", s, b.String(), want)
		}
	}
}
