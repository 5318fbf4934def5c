package summary

import (
	"slices"
	"sync"
	"testing"

	"insightnotes/internal/annotation"
)

// presentationOf returns the memo an object embeds.
func presentationOf(o Object) *presentation {
	switch o := o.(type) {
	case *classifierObject:
		return &o.shown
	case *clusterObject:
		return &o.shown
	case *snippetObject:
		return &o.shown
	}
	panic("unknown object type")
}

func sameElements(a, b []Element) bool {
	return slices.EqualFunc(a, b, func(x, y Element) bool {
		return x.Label == y.Label && slices.Equal(x.IDs, y.IDs)
	})
}

// TestSharedPresentationFollowsClones: a shared object's Render and
// Elements equal those of its Clone. The clone is then changed — Add,
// Remove, a MergeFrom that bridges two groups the clone holds shared, a
// similarity merge — and must show exactly what an object built the same
// way and never shared shows, while the original's output stays as it was.
// A memo outliving a change (of the object or of one of its cluster groups)
// fails the first check; one written through to the original fails the
// second.
func TestSharedPresentationFollowsClones(t *testing.T) {
	cls := classifierInstance(t, "C")
	clu := clusterInstance(t, "Clu")
	snp := snippetInstance(t, "T")
	cluster := func(id annotation.ID, term string) Digest {
		return Digest{Ann: id, Vector: vec(term, 1), Preview: term}
	}
	doc := func(id annotation.ID, title string) Digest {
		return Digest{Ann: id, HasDoc: true, Title: title, Snippet: "snippet of " + title}
	}
	cases := []struct {
		name   string
		in     *Instance
		build  []Digest
		mutate func(o Object)
	}{
		{"classifier/Add", cls, []Digest{{Ann: 1, LabelIndex: 0}, {Ann: 2, LabelIndex: 1}},
			func(o Object) { o.Add(Digest{Ann: 3, LabelIndex: 1}) }},
		{"classifier/Remove", cls, []Digest{{Ann: 1, LabelIndex: 0}, {Ann: 2, LabelIndex: 1}},
			func(o Object) { o.Remove([]annotation.ID{2}) }},
		{"classifier/MergeFrom", cls, []Digest{{Ann: 1, LabelIndex: 0}},
			func(o Object) {
				other := cls.NewObject()
				other.Add(Digest{Ann: 1, LabelIndex: 0})
				other.Add(Digest{Ann: 5, LabelIndex: 2})
				o.MergeFrom(other)
			}},
		{"snippet/Add", snp, []Digest{doc(1, "one")},
			func(o Object) { o.Add(doc(2, "two")) }},
		{"snippet/Remove", snp, []Digest{doc(1, "one"), doc(2, "two")},
			func(o Object) { o.Remove([]annotation.ID{1}) }},
		{"snippet/MergeFrom", snp, []Digest{doc(1, "one")},
			func(o Object) {
				other := snp.NewObject()
				other.Add(doc(3, "three"))
				o.MergeFrom(other)
			}},
		{"cluster/AddJoiningGroup", clu, []Digest{cluster(1, "alpha"), cluster(3, "beta")},
			func(o Object) { o.Add(cluster(2, "alpha")) }},
		{"cluster/Remove", clu, []Digest{cluster(1, "alpha"), cluster(2, "alpha"), cluster(3, "beta")},
			func(o Object) { o.Remove([]annotation.ID{1}) }},
		{"cluster/BridgingMerge", clu, []Digest{cluster(1, "alpha"), cluster(3, "beta"), cluster(5, "gamma")},
			func(o Object) {
				bridge := clu.NewObject()
				bridge.Add(cluster(1, "alpha"))
				bridge.Add(cluster(3, "alpha")) // one group holding 1 and 3 fuses alpha and beta
				o.MergeFrom(bridge)
			}},
		{"cluster/SimilarityMerge", clu, []Digest{cluster(1, "alpha"), cluster(3, "beta")},
			func(o Object) {
				clu.MergeBySimilarity = true
				defer func() { clu.MergeBySimilarity = false }()
				other := clu.NewObject()
				other.Add(cluster(30, "alpha")) // disjoint, but joins alpha by similarity
				o.MergeFrom(other)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() Object {
				o := tc.in.NewObject()
				for _, d := range tc.build {
					o.Add(d)
				}
				return o
			}
			orig := build()
			orig.share()
			text, els, size := orig.Render(), orig.Elements(), orig.ApproxBytes()
			if p := presentationOf(orig); p.text.Load() == nil || p.elems.Load() == nil {
				t.Fatal("a shared object did not memoise its presentation")
			}
			if again := orig.Elements(); len(again) > 0 && &again[0] != &els[0] {
				t.Error("a shared object recomputed its elements")
			}
			cp := orig.Clone()
			if cp.Render() != text || !sameElements(cp.Elements(), els) || cp.ApproxBytes() != size {
				t.Errorf("clone shows %s %v (%d bytes), original %s %v (%d bytes)", cp.Render(), cp.Elements(), cp.ApproxBytes(), text, els, size)
			}
			// The clone's cluster groups are now shared with the original,
			// and the calls above memoised their labels, ids and sizes.
			tc.mutate(cp)
			want := build()
			tc.mutate(want)
			if got := cp.Render(); got != want.Render() {
				t.Errorf("changed clone renders %s, want %s", got, want.Render())
			}
			if got := cp.Elements(); !sameElements(got, want.Elements()) {
				t.Errorf("changed clone has elements %v, want %v", got, want.Elements())
			}
			if got := cp.ApproxBytes(); got != want.ApproxBytes() {
				t.Errorf("changed clone counts %d bytes, want %d", got, want.ApproxBytes())
			}
			if orig.Render() != text || !sameElements(orig.Elements(), els) || orig.ApproxBytes() != size {
				t.Errorf("changing the clone changed the original: %s %v, was %s %v", orig.Render(), orig.Elements(), text, els)
			}
			fresh := build()
			if fresh.Render() != text || !sameElements(fresh.Elements(), els) {
				t.Errorf("the original shows %s %v, a rebuilt object %s %v", text, els, fresh.Render(), fresh.Elements())
			}
			if p := presentationOf(cp); p.text.Load() != nil || p.elems.Load() != nil {
				t.Error("an unshared object memoised its presentation")
			}
		})
	}
}

// TestUnsharedGroupsRecomputeTheirLabels: an accumulator's own groups
// (unshared) show every change, and a group it adopted shows the label it
// was memoised with until the accumulator copies it to change it.
func TestUnsharedGroupsRecomputeTheirLabels(t *testing.T) {
	clu := clusterInstance(t, "Clu")
	acc := clu.NewObject().(*clusterObject)
	acc.Add(Digest{Ann: 1, Vector: vec("alpha", 1), Preview: "alpha"})
	donor := clu.NewObject().(*clusterObject)
	donor.Add(Digest{Ann: 5, Vector: vec("beta", 1), Preview: "beta"})
	acc.MergeFrom(donor) // adopts beta's group, latched shared
	adopted := groupOf(acc, 5)
	if !adopted.isShared() || adopted != groupOf(donor, 5) {
		t.Fatal("setup: the beta group was not adopted")
	}
	if got := acc.Render(); got != `Clu {[A1 "alpha" ×1] [A5 "beta" ×1]}` {
		t.Fatalf("Render = %s", got)
	}
	if adopted.label.Load() == nil || groupOf(acc, 1).label.Load() != nil {
		t.Error("want a label memo on the adopted group only")
	}
	acc.Add(Digest{Ann: 2, Vector: vec("alpha", 1), Preview: "alpha"})
	acc.Add(Digest{Ann: 6, Vector: vec("beta", 1), Preview: "beta"})
	if got := acc.Render(); got != `Clu {[A1 "alpha" ×2] [A5 "beta" ×2]}` {
		t.Errorf("after adding to both groups, Render = %s", got)
	}
	if got := donor.Render(); got != `Clu {[A5 "beta" ×1]}` {
		t.Errorf("the donor shows %s", got)
	}
	if ids, _ := acc.Zoom(2); !slices.Equal(ids, []annotation.ID{5, 6}) {
		t.Errorf("Zoom(2) = %v", ids)
	}
}

// TestConcurrentReadersShareOneMemo: readers of one shared object, and of
// an accumulator holding its shared groups, present it concurrently and all
// see the same text and elements. Run with -race.
func TestConcurrentReadersShareOneMemo(t *testing.T) {
	clu := clusterInstance(t, "Clu")
	stored := clu.NewObject()
	for i := 1; i <= 12; i++ {
		stored.Add(Digest{Ann: annotation.ID(i), Vector: vec([]string{"alpha", "beta", "gamma"}[i%3], 1), Preview: "p"})
	}
	stored.share()
	view := stored.Clone() // latches every group shared
	want, wantEls := view.Render(), view.Elements()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, o := range []Object{stored, view} {
					if o.Render() != want || !sameElements(o.Elements(), wantEls) {
						t.Errorf("a concurrent reader saw %s", o.Render())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
