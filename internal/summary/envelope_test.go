package summary

import (
	"strings"
	"testing"
	"unsafe"

	"insightnotes/internal/annotation"
)

// buildTupleEnvelope assembles an envelope like tuple r of Figure 2: a
// classifier, a cluster, and a snippet instance over annotations covering
// different columns of a 4-column tuple.
func buildTupleEnvelope(t testing.TB) (*Envelope, *Instance, *Instance, *Instance) {
	t.Helper()
	cls := classifierInstance(t, "ClassBird1")
	clu := clusterInstance(t, "SimCluster")
	snp := snippetInstance(t, "TextSummary1")
	e := NewEnvelope()
	// Annotations 1-2 on columns {0,1}, annotation 3 on column 2 only,
	// annotation 4 (a document) on column 3 only.
	addAnn(e, cls, ann(1, behaviorText(1)), annotation.Col(0).Union(annotation.Col(1)))
	addAnn(e, clu, ann(1, behaviorText(1)), annotation.Col(0).Union(annotation.Col(1)))
	addAnn(e, cls, ann(2, diseaseText(2)), annotation.Col(1))
	addAnn(e, clu, ann(2, diseaseText(2)), annotation.Col(1))
	addAnn(e, cls, ann(3, behaviorText(3)), annotation.Col(2))
	addAnn(e, clu, ann(3, behaviorText(3)), annotation.Col(2))
	addAnn(e, snp, docAnn(4, "Wikipedia article", wikiDoc), annotation.Col(3))
	return e, cls, clu, snp
}

func TestEnvelopeAddAndAccessors(t *testing.T) {
	e, _, _, _ := buildTupleEnvelope(t)
	if e.IsEmpty() {
		t.Fatal("envelope empty")
	}
	if got := e.Annotations(); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("Annotations = %v", got)
	}
	names := e.InstanceNames()
	if len(names) != 3 || names[0] != "ClassBird1" || names[1] != "SimCluster" {
		t.Errorf("InstanceNames = %v", names)
	}
	if e.Object("ClassBird1") == nil || e.Object("missing") != nil {
		t.Error("Object lookup wrong")
	}
	if e.ApproxBytes() <= 0 {
		t.Error("ApproxBytes = 0")
	}
}

// TestEnvelopeProjectCuratesSummaries reproduces Figure 2 step 1: project
// out columns and eliminate the effect of their annotations from the
// summary objects.
func TestEnvelopeProjectCuratesSummaries(t *testing.T) {
	e, cls, _, _ := buildTupleEnvelope(t)
	// Keep columns 0 and 1 (project out 2 and 3): annotation 3 (col 2)
	// and document annotation 4 (col 3) must vanish.
	e.Project([]int{0, 1})
	if got := e.Annotations(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Annotations after project = %v", got)
	}
	co := e.Object("ClassBird1").(*classifierObject)
	bi := cls.Classifier.LabelIndex("Behavior")
	di := cls.Classifier.LabelIndex("Disease")
	if co.LabelCount(bi) != 1 || co.LabelCount(di) != 1 {
		t.Errorf("classifier counts after project: behavior=%d disease=%d",
			co.LabelCount(bi), co.LabelCount(di))
	}
	// The snippet object lost its only entry and disappears entirely.
	if e.Object("TextSummary1") != nil {
		t.Error("empty snippet object not removed")
	}
	// Coverage rebased to output ordinals.
	if e.CoverOf(1) != annotation.Col(0).Union(annotation.Col(1)) {
		t.Errorf("coverage of ann 1 = %v", e.CoverOf(1))
	}
	if e.CoverOf(2) != annotation.Col(1) {
		t.Errorf("coverage of ann 2 = %v", e.CoverOf(2))
	}
}

func TestEnvelopeProjectReorder(t *testing.T) {
	e, _, _, _ := buildTupleEnvelope(t)
	// Output = (col2, col0): annotation 3 (col 2) maps to output 0;
	// annotation 1 (cols 0,1) maps to output 1; annotation 2 (col 1) drops.
	e.Project([]int{2, 0})
	if e.CoverOf(3) != annotation.Col(0) {
		t.Errorf("ann 3 coverage = %v", e.CoverOf(3))
	}
	if e.CoverOf(1) != annotation.Col(1) {
		t.Errorf("ann 1 coverage = %v", e.CoverOf(1))
	}
	if !e.CoverOf(2).Empty() {
		t.Error("ann 2 survived projection")
	}
}

func TestEnvelopeMergeShiftsRightCoverage(t *testing.T) {
	cls := classifierInstance(t, "ClassBird2")
	left := NewEnvelope()
	right := NewEnvelope()
	addAnn(left, cls, ann(1, behaviorText(1)), annotation.Col(0))
	addAnn(right, cls, ann(2, diseaseText(2)), annotation.Col(0))
	left.Merge(right, 2) // left tuple has 2 columns
	if left.CoverOf(1) != annotation.Col(0) {
		t.Errorf("left ann coverage = %v", left.CoverOf(1))
	}
	if left.CoverOf(2) != annotation.Col(2) {
		t.Errorf("right ann coverage = %v (must shift by left width)", left.CoverOf(2))
	}
	co := left.Object("ClassBird2")
	if co.Len() != 2 {
		t.Errorf("merged classifier Len = %d", co.Len())
	}
}

// TestEnvelopeMergeSharedAnnotationNotDoubleCounted is the Figure 2 rule:
// annotations attached to both joined tuples count once.
func TestEnvelopeMergeSharedAnnotationNotDoubleCounted(t *testing.T) {
	cls := classifierInstance(t, "ClassBird2")
	left := NewEnvelope()
	right := NewEnvelope()
	for i := annotation.ID(1); i <= 7; i++ {
		addAnn(left, cls, ann(i, behaviorText(int(i))), annotation.Col(0))
	}
	// Right shares annotations 3..7 and adds 8..9.
	for i := annotation.ID(3); i <= 9; i++ {
		addAnn(right, cls, ann(i, behaviorText(int(i))), annotation.Col(0))
	}
	left.Merge(right, 1)
	if got := left.Object("ClassBird2").Len(); got != 9 {
		t.Errorf("merged members = %d, want 9", got)
	}
	// Shared annotations cover columns on both sides.
	if left.CoverOf(3) != annotation.Col(0).Union(annotation.Col(1)) {
		t.Errorf("shared ann coverage = %v", left.CoverOf(3))
	}
}

func TestEnvelopeMergeDisjointInstancesPropagate(t *testing.T) {
	// Figure 2: ClassBird1 and TextSummary1 exist only on r and propagate
	// unchanged; ClassBird2 exists on both sides and merges.
	cb1 := classifierInstance(t, "ClassBird1")
	cb2 := classifierInstance(t, "ClassBird2")
	left := NewEnvelope()
	right := NewEnvelope()
	addAnn(left, cb1, ann(1, behaviorText(1)), annotation.Col(0))
	addAnn(left, cb2, ann(2, behaviorText(2)), annotation.Col(0))
	addAnn(right, cb2, ann(3, diseaseText(3)), annotation.Col(0))
	before := left.Object("ClassBird1").Render()
	left.Merge(right, 1)
	if left.Object("ClassBird1").Render() != before {
		t.Error("one-sided object changed during merge")
	}
	if left.Object("ClassBird2").Len() != 2 {
		t.Errorf("two-sided object Len = %d", left.Object("ClassBird2").Len())
	}
}

func TestEnvelopeCombine(t *testing.T) {
	cls := classifierInstance(t, "C")
	a := NewEnvelope()
	b := NewEnvelope()
	addAnn(a, cls, ann(1, behaviorText(1)), annotation.Col(0))
	addAnn(b, cls, ann(1, behaviorText(1)), annotation.Col(1))
	addAnn(b, cls, ann(2, diseaseText(2)), annotation.Col(0))
	a.Combine(b)
	if a.CoverOf(1) != annotation.Col(0).Union(annotation.Col(1)) {
		t.Errorf("combined coverage = %v", a.CoverOf(1))
	}
	if a.Object("C").Len() != 2 {
		t.Errorf("combined Len = %d", a.Object("C").Len())
	}
}

func TestEnvelopeCloneIndependence(t *testing.T) {
	e, cls, _, _ := buildTupleEnvelope(t)
	cp := e.Clone()
	if !e.Equal(cp) {
		t.Fatal("clone not Equal")
	}
	addAnn(cp, cls, ann(99, behaviorText(99)), annotation.Col(0))
	if e.Equal(cp) {
		t.Error("clone shares state")
	}
	if e.Len() != 4 {
		t.Errorf("original coverage mutated: %d", e.Len())
	}
}

func TestEnvelopeEqualDiffersOnCoverage(t *testing.T) {
	cls := classifierInstance(t, "C")
	a := NewEnvelope()
	b := NewEnvelope()
	addAnn(a, cls, ann(1, behaviorText(1)), annotation.Col(0))
	addAnn(b, cls, ann(1, behaviorText(1)), annotation.Col(1))
	if a.Equal(b) {
		t.Error("envelopes with different coverage compare Equal")
	}
}

func TestEnvelopeRenderDeterministic(t *testing.T) {
	e, _, _, _ := buildTupleEnvelope(t)
	r1 := e.Render()
	r2 := e.Clone().Render()
	if r1 != r2 {
		t.Errorf("Render nondeterministic:\n%s\nvs\n%s", r1, r2)
	}
	lines := strings.Split(r1, "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "ClassBird1") {
		t.Errorf("Render = %q", r1)
	}
}

// TestEnvelopeProjectBeforeMergeTheorem verifies the operational form of
// Theorems 1 & 2: projecting both inputs to the final column set before
// merging yields the same result regardless of merge order.
func TestEnvelopeProjectBeforeMergeTheorem(t *testing.T) {
	cls := classifierInstance(t, "C")
	clu := clusterInstance(t, "S")
	build := func(ids []annotation.ID, cols ...annotation.ColSet) *Envelope {
		e := NewEnvelope()
		for i, id := range ids {
			addAnn(e, cls, ann(id, behaviorText(int(id))), cols[i])
			addAnn(e, clu, ann(id, behaviorText(int(id))), cols[i])
		}
		return e
	}
	// Three tuple envelopes with 2 columns each; final output keeps
	// column 0 of each.
	e1 := build([]annotation.ID{1, 2}, annotation.Col(0), annotation.Col(1))
	e2 := build([]annotation.ID{2, 3}, annotation.Col(0), annotation.Col(1))
	e3 := build([]annotation.ID{3, 4}, annotation.Col(0).Union(annotation.Col(1)), annotation.Col(0))

	project := func(e *Envelope) *Envelope {
		cp := e.Clone()
		cp.Project([]int{0})
		return cp
	}
	// Plan A: ((e1 ⋈ e2) ⋈ e3) with curate-before-merge.
	a := project(e1)
	a.Merge(project(e2), 1)
	a.Merge(project(e3), 2)
	// Plan B: (e1 ⋈ (e2 ⋈ e3)).
	bc := project(e2)
	bc.Merge(project(e3), 1)
	b := project(e1)
	b.Merge(bc, 1)
	if !a.Equal(b) {
		t.Errorf("plan-equivalence violated:\nA: %s\nB: %s", a.Render(), b.Render())
	}
}

// TestEnvelopeFitsItsSizeClass: every View a scan takes allocates one
// Envelope, which must stay in the 64-byte size class.
func TestEnvelopeFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Envelope{}); n > 64 {
		t.Errorf("Envelope is %d bytes, over 64", n)
	}
}
