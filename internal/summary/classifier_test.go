package summary

import (
	"strings"
	"testing"

	"insightnotes/internal/annotation"
)

func TestClassifierObjectAddAndCounts(t *testing.T) {
	in := classifierInstance(t, "ClassBird1")
	obj := in.NewObject().(*classifierObject)
	obj.Add(in.Summarize(ann(1, "observed feeding on stonewort")))
	obj.Add(in.Summarize(ann(2, "signs of avian influenza infection")))
	obj.Add(in.Summarize(ann(3, "eating stonewort again at dawn")))
	if obj.Len() != 3 {
		t.Fatalf("Len = %d", obj.Len())
	}
	bi := in.Classifier.LabelIndex("Behavior")
	di := in.Classifier.LabelIndex("Disease")
	if obj.LabelCount(bi) != 2 || obj.LabelCount(di) != 1 {
		t.Errorf("counts: behavior=%d disease=%d", obj.LabelCount(bi), obj.LabelCount(di))
	}
}

func TestClassifierObjectDuplicateAddIgnored(t *testing.T) {
	in := classifierInstance(t, "C")
	obj := in.NewObject()
	d := in.Summarize(ann(7, "observed feeding"))
	obj.Add(d)
	obj.Add(d)
	if obj.Len() != 1 {
		t.Errorf("duplicate add changed Len: %d", obj.Len())
	}
}

func TestClassifierObjectRemove(t *testing.T) {
	in := classifierInstance(t, "C")
	obj := in.NewObject().(*classifierObject)
	for i := annotation.ID(1); i <= 4; i++ {
		obj.Add(in.Summarize(ann(i, behaviorText(int(i)))))
	}
	obj.Remove(func(id annotation.ID) bool { return id%2 == 0 })
	if obj.Len() != 2 {
		t.Fatalf("Len after remove = %d", obj.Len())
	}
	bi := in.Classifier.LabelIndex("Behavior")
	if obj.LabelCount(bi) != 2 {
		t.Errorf("count after remove = %d", obj.LabelCount(bi))
	}
	got := obj.Members()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Members = %v", got)
	}
}

// TestClassifierMergeAvoidsDoubleCounting reproduces the paper's "22
// instead of 27" rule: five annotations shared by both sides are counted
// once after the merge.
func TestClassifierMergeAvoidsDoubleCounting(t *testing.T) {
	in := classifierInstance(t, "ClassBird2")
	left := in.NewObject().(*classifierObject)
	right := in.NewObject().(*classifierObject)
	// Left: annotations 1..10; right: 6..12. Shared: 6..10 (5 of them).
	for i := annotation.ID(1); i <= 10; i++ {
		left.Add(in.Summarize(ann(i, behaviorText(int(i)))))
	}
	for i := annotation.ID(6); i <= 12; i++ {
		right.Add(in.Summarize(ann(i, behaviorText(int(i)))))
	}
	left.MergeFrom(right)
	if left.Len() != 12 {
		t.Fatalf("merged Len = %d, want 12 (shared annotations not double counted)", left.Len())
	}
	bi := in.Classifier.LabelIndex("Behavior")
	if left.LabelCount(bi) != 12 {
		t.Errorf("merged count = %d, want 12", left.LabelCount(bi))
	}
}

func TestClassifierZoom(t *testing.T) {
	in := classifierInstance(t, "C")
	obj := in.NewObject()
	obj.Add(in.Summarize(ann(1, behaviorText(1))))
	obj.Add(in.Summarize(ann(2, diseaseText(2))))
	obj.Add(in.Summarize(ann(3, diseaseText(3))))
	// Label order: Behavior=1, Disease=2 (1-based zoom indexes).
	ids, err := obj.Zoom(2)
	if err != nil || len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("Zoom(Disease) = %v, %v", ids, err)
	}
	ids, err = obj.Zoom(1)
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("Zoom(Behavior) = %v, %v", ids, err)
	}
	if _, err := obj.Zoom(0); err == nil {
		t.Error("Zoom(0) succeeded")
	}
	if _, err := obj.Zoom(5); err == nil {
		t.Error("Zoom(5) succeeded")
	}
	labels := elementLabels(obj)
	if len(labels) != 4 || labels[0] != "Behavior" {
		t.Errorf("element labels = %v", labels)
	}
}

func TestClassifierRender(t *testing.T) {
	in := classifierInstance(t, "ClassBird1")
	obj := in.NewObject()
	obj.Add(in.Summarize(ann(1, behaviorText(1))))
	got := obj.Render()
	if !strings.HasPrefix(got, "ClassBird1 [(Behavior, 1), (Disease, 0)") {
		t.Errorf("Render = %q", got)
	}
}

func TestClassifierCloneIndependence(t *testing.T) {
	in := classifierInstance(t, "C")
	obj := in.NewObject()
	obj.Add(in.Summarize(ann(1, behaviorText(1))))
	cp := obj.Clone()
	cp.Add(in.Summarize(ann(2, diseaseText(2))))
	if obj.Len() != 1 || cp.Len() != 2 {
		t.Errorf("clone not independent: %d, %d", obj.Len(), cp.Len())
	}
	if !obj.Equal(obj.Clone()) {
		t.Error("object not Equal to its own clone")
	}
	if obj.Equal(cp) {
		t.Error("diverged objects compare Equal")
	}
}

func TestClassifierEqualDifferentLabels(t *testing.T) {
	in := classifierInstance(t, "C")
	a := in.NewObject()
	b := in.NewObject()
	a.Add(Digest{Ann: 1, LabelIndex: 0})
	b.Add(Digest{Ann: 1, LabelIndex: 1})
	if a.Equal(b) {
		t.Error("same member with different labels compares Equal")
	}
}

func TestClassifierMergeIncompatiblePanics(t *testing.T) {
	in1 := classifierInstance(t, "A")
	in2 := classifierInstance(t, "B")
	defer func() {
		if recover() == nil {
			t.Error("merge of different instances did not panic")
		}
	}()
	in1.NewObject().MergeFrom(in2.NewObject())
}

func TestClassifierApproxBytesGrows(t *testing.T) {
	in := classifierInstance(t, "C")
	obj := in.NewObject()
	before := obj.ApproxBytes()
	for i := annotation.ID(1); i <= 100; i++ {
		obj.Add(in.Summarize(ann(i, behaviorText(int(i)))))
	}
	if obj.ApproxBytes() <= before {
		t.Error("ApproxBytes did not grow with members")
	}
	// Size stays tiny relative to 100 raw annotations (~60 bytes each).
	if obj.ApproxBytes() > 100*30 {
		t.Errorf("classifier object unexpectedly large: %d bytes", obj.ApproxBytes())
	}
}
