package summary

import (
	"maps"
	"reflect"
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
			e.RemapColumns(NewColMap([]annotation.ColSet{annotation.Col(0), annotation.Col(0), annotation.Col(1)}))
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
				for _, o := range held.objs {
					before[o.name] = o.obj
				}
				changed := map[string]bool{}
				for _, name := range tc.mutate(t, mutated, cls, clu, snp) {
					changed[name] = true
				}
				if !held.Equal(want) {
					t.Errorf("the %s's mutator changed the other side:\n%s\nwant\n%s", side, held.Render(), want.Render())
				}
				for name, obj := range before {
					if held.Object(name) != obj {
						t.Errorf("%s: the untouched side replaced its own object", name)
					}
					if got := mutated.Object(name); got != nil && !changed[name] && got != obj {
						t.Errorf("%s: an object no mutator touched was copied", name)
					}
					if got := mutated.Object(name); changed[name] && got == obj {
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
	if left.Object("C") != right.Object("C") {
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

// TestProjectedViewSharesItsObjects: a projection of a view that drops no
// annotation writes its own coverage but keeps the lender's object list,
// its objects latched shared so that their presentation is memoised for
// every later reader; one that drops an annotation copies the list and
// changes only its own objects.
func TestProjectedViewSharesItsObjects(t *testing.T) {
	lender, _, _, _ := buildTupleEnvelope(t)
	want := lender.Render()
	v := lender.View()
	v.Project([]int{3, 2, 1, 0}) // every annotation keeps a column
	if !sameList(v.objs, lender.objs) {
		t.Error("a projection that dropped nothing copied the object list")
	}
	for _, o := range v.objs {
		if !o.obj.isShared() {
			t.Errorf("%s: not latched shared after the projection", o.name)
		}
	}
	if v.CoverOf(4) != annotation.Col(0) || lender.CoverOf(4) != annotation.Col(3) {
		t.Errorf("coverage of 4: view %v, lender %v", v.CoverOf(4), lender.CoverOf(4))
	}
	v.Project([]int{1, 2, 3}) // drops annotation 4, now on column 0: the snippet object's only member
	if sameList(v.objs, lender.objs) || v.Object("TextSummary1") != nil {
		t.Error("a projection that dropped the snippet kept the lender's object list")
	}
	if got := lender.Render(); got != want {
		t.Errorf("projecting the view changed the lender:\n%s\nwant\n%s", got, want)
	}
}

// sameList reports whether a and b are the same list.
func sameList(a, b []namedObject) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestCloneSharesNothing: Clone, even of a view, shares nothing that either
// side can change in place. Lists and objects are the copy's own; the cluster
// groups both sides then hold are latched shared, so whichever side changes
// one first copies it.
func TestCloneSharesNothing(t *testing.T) {
	lender, _, clu, _ := buildTupleEnvelope(t)
	want := lender.Render()
	cp := lender.View().Clone()
	for _, o := range cp.objs {
		if o.obj == lender.Object(o.name) || o.obj.isShared() {
			t.Errorf("%s: Clone shares its object", o.name)
		}
	}
	for _, g := range clusterOf(cp, clu.Name).groups {
		if !g.isShared() {
			t.Error("a cluster group both copies hold is not latched shared")
		}
	}
	cp.RemoveAnnotation(1)
	if got := lender.Render(); got != want {
		t.Errorf("mutating the clone changed the original:\n%s\nwant\n%s", got, want)
	}
	wantCopy := cp.Render()
	lender.RemoveAnnotation(3)
	if got := cp.Render(); got != wantCopy {
		t.Errorf("mutating the original changed the clone:\n%s\nwant\n%s", got, wantCopy)
	}
}

// TestCombineAdoptsClusterGroupsCopyOnWrite: a Combine whose cluster groups
// meet none on the left adopts every right-hand group by pointer. A later
// change to one of them on either side copies it first: the other side stays
// Equal to what it was and keeps every group it had, and the changing side
// keeps every group the change did not touch.
func TestCombineAdoptsClusterGroupsCopyOnWrite(t *testing.T) {
	clu := clusterInstance(t, "Clu")
	add := func(e *Envelope, id annotation.ID, term string, col int) {
		e.Add(clu, Digest{Ann: id, Vector: vec(term, 1), Preview: term}, annotation.Col(col))
	}
	// Groups alpha {1, 2}, beta {3, 4} and gamma {5}; 2 and 4 cover
	// column 1 only.
	right := func() *Envelope {
		e := NewEnvelope()
		add(e, 1, "alpha", 0)
		add(e, 2, "alpha", 1)
		add(e, 3, "beta", 0)
		add(e, 4, "beta", 1)
		add(e, 5, "gamma", 0)
		return e
	}
	left := func() *Envelope {
		e := NewEnvelope()
		add(e, 10, "delta", 0)
		return e
	}
	cases := []struct {
		name   string
		mutate func(e *Envelope)
		// touched lists members of the groups the change must copy.
		touched []annotation.ID
	}{
		{"AddJoiningGroup", func(e *Envelope) { add(e, 20, "alpha", 0) }, []annotation.ID{1}},
		{"RemoveMember", func(e *Envelope) { e.RemoveAnnotation(3) }, []annotation.ID{3}},
		{"BridgingMerge", func(e *Envelope) {
			bridge := NewEnvelope()
			add(bridge, 1, "alpha", 0)
			add(bridge, 3, "alpha", 0) // one group holding 1 and 3 fuses alpha and beta
			e.Combine(bridge)
		}, []annotation.ID{1, 3}},
		{"SimilarityMerge", func(e *Envelope) {
			clu.MergeBySimilarity = true
			defer func() { clu.MergeBySimilarity = false }()
			other := NewEnvelope()
			add(other, 30, "alpha", 0) // disjoint, but joins alpha by similarity
			e.Combine(other)
		}, []annotation.ID{1}},
		{"ProjectDroppingMembers", func(e *Envelope) { e.Project([]int{0}) }, []annotation.ID{2, 4}},
	}
	for _, tc := range cases {
		for _, side := range []string{"adopter", "donor"} {
			t.Run(tc.name+"/"+side, func(t *testing.T) {
				l, r := left(), right()
				l.Combine(r)
				adopted := groupsOf(l)
				for g := range groupsOf(r) {
					if !adopted[g] {
						t.Fatal("Combine copied a right-hand group no left-hand group overlaps")
					}
				}
				mutated, held, want := l, r, right()
				if side == "donor" {
					mutated, held = r, l
					want = left()
					want.Combine(right())
				}
				heldBefore, mutatedBefore := groupsOf(held), groupsOf(mutated)
				touched := map[*clusterGroup]bool{}
				for _, id := range tc.touched {
					touched[groupOf(clusterOf(mutated, clu.Name), id)] = true
				}
				tc.mutate(mutated)
				if !held.Equal(want) {
					t.Errorf("the %s's change reached the other side:\n%s\nwant\n%s", side, held.Render(), want.Render())
				}
				if !maps.Equal(groupsOf(held), heldBefore) {
					t.Error("the other side's groups were replaced")
				}
				after := groupsOf(mutated)
				for g := range mutatedBefore {
					switch {
					case touched[g] && after[g]:
						t.Errorf("group of %d changed in place while shared", g.min)
					case !touched[g] && !after[g]:
						t.Errorf("group of %d copied though the change did not touch it", g.min)
					}
				}
			})
		}
	}
}

// clusterOf returns e's object of the named cluster instance.
func clusterOf(e *Envelope, name string) *clusterObject { return e.Object(name).(*clusterObject) }

// groupsOf returns the groups of e's only cluster object.
func groupsOf(e *Envelope) map[*clusterGroup]bool {
	out := map[*clusterGroup]bool{}
	for _, o := range e.objs {
		for _, g := range o.obj.(*clusterObject).groups {
			out[g] = true
		}
	}
	return out
}
