package summary

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"insightnotes/internal/annotation"
)

func TestClusterGroupsSimilarAnnotations(t *testing.T) {
	in := clusterInstance(t, "SimCluster")
	obj := in.NewObject().(*clusterObject)
	// Two thematic families: feeding behaviour vs disease.
	for i := 1; i <= 3; i++ {
		obj.Add(in.Summarize(ann(annotation.ID(i), behaviorText(i))))
	}
	for i := 4; i <= 6; i++ {
		obj.Add(in.Summarize(ann(annotation.ID(i), diseaseText(i))))
	}
	if obj.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2 (render: %s)", obj.Groups(), obj.Render())
	}
	if obj.Len() != 6 {
		t.Errorf("Len = %d", obj.Len())
	}
	// Group 1 (min id 1) holds the behaviour annotations.
	ids, err := obj.Zoom(1)
	if err != nil || len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("Zoom(1) = %v, %v", ids, err)
	}
	ids, err = obj.Zoom(2)
	if err != nil || len(ids) != 3 || ids[0] != 4 {
		t.Errorf("Zoom(2) = %v, %v", ids, err)
	}
	if _, err := obj.Zoom(3); err == nil {
		t.Error("Zoom(3) succeeded")
	}
}

func TestClusterDissimilarAnnotationsSeparate(t *testing.T) {
	in := clusterInstance(t, "S")
	obj := in.NewObject().(*clusterObject)
	obj.Add(in.Summarize(ann(1, "wingspan measurement photographs")))
	obj.Add(in.Summarize(ann(2, "migration route tracking data")))
	obj.Add(in.Summarize(ann(3, "nesting site soil composition")))
	if obj.Groups() != 3 {
		t.Errorf("Groups = %d, want 3 distinct", obj.Groups())
	}
}

// TestClusterRepReElectionOnRemove reproduces Figure 2's "A5 representative
// replacing the dropped A2 representative".
func TestClusterRepReElectionOnRemove(t *testing.T) {
	in := clusterInstance(t, "SimCluster")
	obj := in.NewObject().(*clusterObject)
	for i := 1; i <= 4; i++ {
		obj.Add(in.Summarize(ann(annotation.ID(i), behaviorText(i))))
	}
	if obj.Groups() != 1 {
		t.Fatalf("expected one group, got %d", obj.Groups())
	}
	rep := obj.Representatives()[0]
	// Drop the representative; a new one must be elected from survivors.
	obj.Remove([]annotation.ID{rep})
	if obj.Len() != 3 {
		t.Fatalf("Len = %d", obj.Len())
	}
	newRep := obj.Representatives()[0]
	if newRep == rep {
		t.Fatalf("representative %d not replaced", rep)
	}
	found := false
	for _, id := range obj.Members() {
		if id == newRep {
			found = true
		}
	}
	if !found {
		t.Errorf("new representative %d is not a member", newRep)
	}
}

func TestClusterRemoveDropsEmptyGroups(t *testing.T) {
	in := clusterInstance(t, "S")
	obj := in.NewObject().(*clusterObject)
	obj.Add(in.Summarize(ann(1, behaviorText(1))))
	obj.Add(in.Summarize(ann(2, diseaseText(2))))
	obj.Remove([]annotation.ID{1})
	if obj.Groups() != 1 || obj.Len() != 1 {
		t.Errorf("Groups = %d, Len = %d", obj.Groups(), obj.Len())
	}
	obj.Remove(obj.Members())
	if obj.Groups() != 0 || obj.Len() != 0 {
		t.Errorf("after removing all: Groups = %d, Len = %d", obj.Groups(), obj.Len())
	}
}

func TestClusterMergeOverlappingGroupsCombine(t *testing.T) {
	in := clusterInstance(t, "SimCluster")
	left := in.NewObject().(*clusterObject)
	right := in.NewObject().(*clusterObject)
	// Annotation 3 lives on both sides (attached to both joined tuples).
	for i := 1; i <= 3; i++ {
		left.Add(in.Summarize(ann(annotation.ID(i), behaviorText(i))))
	}
	right.Add(in.Summarize(ann(3, behaviorText(3))))
	right.Add(in.Summarize(ann(4, behaviorText(4))))
	// A dissimilar group on the right propagates separately.
	right.Add(in.Summarize(ann(9, "unrelated telescope calibration note")))
	left.MergeFrom(right)
	if left.Len() != 5 {
		t.Fatalf("merged Len = %d, want 5 (shared annotation 3 deduplicated)", left.Len())
	}
	if left.Groups() != 2 {
		t.Fatalf("merged Groups = %d, want 2: %s", left.Groups(), left.Render())
	}
	ids, _ := left.Zoom(1)
	if len(ids) != 4 {
		t.Errorf("combined group = %v, want the 4 behaviour annotations", ids)
	}
}

func TestClusterMergeTransitiveBridge(t *testing.T) {
	in := clusterInstance(t, "S")
	left := in.NewObject().(*clusterObject)
	// Two artificially separate groups on the left (added as dissimilar).
	left.Add(Digest{Ann: 1, Vector: vec("alpha", 3), Preview: "a1"})
	left.Add(Digest{Ann: 2, Vector: vec("beta", 3), Preview: "a2"})
	if left.Groups() != 2 {
		t.Fatalf("setup: Groups = %d", left.Groups())
	}
	// The right side has one group containing both 1 and 2 → bridge.
	right := in.NewObject().(*clusterObject)
	right.Add(Digest{Ann: 1, Vector: vec("alpha", 3), Preview: "a1"})
	g := groupOf(right, 1)
	g.members = append(g.members, 2, 3)
	g.addCandidate(repCandidate{id: 2, preview: "a2", sim: 0.5})
	g.addCandidate(repCandidate{id: 3, preview: "a3", sim: 0.4})
	elect(g)

	left.MergeFrom(right)
	if left.Groups() != 1 {
		t.Fatalf("bridge merge Groups = %d, want 1: %s", left.Groups(), left.Render())
	}
	if left.Len() != 3 {
		t.Errorf("bridge merge Len = %d", left.Len())
	}
}

// vec builds a trivial vector around one term for synthetic digests.
func vec(term string, w float64) map[string]float64 {
	return map[string]float64{term: w}
}

// TestClusterMergeCommutativeAssociativeProperty verifies the canonical
// member-overlap merge semantics behind the plan-equivalence theorems:
// merging base objects in any order yields Equal results.
func TestClusterMergeCommutativeAssociativeProperty(t *testing.T) {
	in := clusterInstance(t, "S")
	texts := []string{
		behaviorText(1), behaviorText(2), diseaseText(1), diseaseText(2),
		"wing anatomy measurement notes", behaviorText(3),
	}
	mkObj := func(ids []annotation.ID) *clusterObject {
		o := in.NewObject().(*clusterObject)
		for _, id := range ids {
			o.Add(in.Summarize(ann(id, texts[int(id)%len(texts)])))
		}
		return o
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Three base objects with overlapping id ranges.
		var sets [3][]annotation.ID
		for s := range sets {
			for i := 0; i < 5; i++ {
				sets[s] = append(sets[s], annotation.ID(r.Intn(10)+1))
			}
		}
		// Order 1: ((a ⊎ b) ⊎ c)
		o1 := mkObj(sets[0])
		o1.MergeFrom(mkObj(sets[1]))
		o1.MergeFrom(mkObj(sets[2]))
		// Order 2: (a ⊎ (b ⊎ c))
		bc := mkObj(sets[1])
		bc.MergeFrom(mkObj(sets[2]))
		o2 := mkObj(sets[0])
		o2.MergeFrom(bc)
		// Order 3: ((c ⊎ a) ⊎ b)
		o3 := mkObj(sets[2])
		o3.MergeFrom(mkObj(sets[0]))
		o3.MergeFrom(mkObj(sets[1]))
		return o1.Equal(o2) && o1.Equal(o3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClusterMergeBySimilarity(t *testing.T) {
	in := clusterInstance(t, "S")
	in.MergeBySimilarity = true
	left := in.NewObject().(*clusterObject)
	right := in.NewObject().(*clusterObject)
	// Disjoint annotation ids but near-identical content: similarity merge
	// combines the groups (Figure 2's A1+B5 behaviour).
	left.Add(in.Summarize(ann(1, behaviorText(1))))
	left.Add(in.Summarize(ann(2, behaviorText(2))))
	right.Add(in.Summarize(ann(11, behaviorText(11))))
	right.Add(in.Summarize(ann(12, behaviorText(12))))
	left.MergeFrom(right)
	if left.Groups() != 1 {
		t.Errorf("similarity merge Groups = %d, want 1: %s", left.Groups(), left.Render())
	}
	if left.Len() != 4 {
		t.Errorf("Len = %d", left.Len())
	}
}

func TestClusterCloneIndependence(t *testing.T) {
	in := clusterInstance(t, "S")
	obj := in.NewObject().(*clusterObject)
	obj.Add(in.Summarize(ann(1, behaviorText(1))))
	cp := obj.Clone().(*clusterObject)
	cp.Add(in.Summarize(ann(2, diseaseText(2))))
	if obj.Len() != 1 || cp.Len() != 2 {
		t.Errorf("clone not independent: %d, %d", obj.Len(), cp.Len())
	}
	if !obj.Equal(obj.Clone()) {
		t.Error("object not Equal to its clone")
	}
	// Mutating the clone's group must not affect the original's centroid.
	cp.Remove(cp.Members())
	if obj.Len() != 1 || obj.Groups() != 1 {
		t.Error("clearing the clone damaged the original")
	}
}

func TestClusterRenderAndElementLabels(t *testing.T) {
	in := clusterInstance(t, "SimCluster")
	obj := in.NewObject()
	obj.Add(in.Summarize(ann(1, "found eating stonewort by the lake")))
	got := obj.Render()
	if !strings.HasPrefix(got, "SimCluster {[A1 ") || !strings.Contains(got, "×1") {
		t.Errorf("Render = %q", got)
	}
	labels := elementLabels(obj)
	if len(labels) != 1 || !strings.Contains(labels[0], "stonewort") {
		t.Errorf("element labels = %v", labels)
	}
}

func TestClusterDuplicateAddIgnored(t *testing.T) {
	in := clusterInstance(t, "S")
	obj := in.NewObject()
	d := in.Summarize(ann(5, behaviorText(5)))
	obj.Add(d)
	obj.Add(d)
	if obj.Len() != 1 {
		t.Errorf("Len = %d", obj.Len())
	}
}

func TestClusterRepFallbackWhenAllCandidatesDropped(t *testing.T) {
	in := clusterInstance(t, "S")
	obj := in.NewObject().(*clusterObject)
	// One similar group of 6 members: candidates retain only the top 3.
	for i := 1; i <= 6; i++ {
		obj.Add(in.Summarize(ann(annotation.ID(i), behaviorText(i))))
	}
	if obj.Groups() != 1 {
		t.Fatalf("groups = %d", obj.Groups())
	}
	g := obj.sortedGroups()[0]
	if len(g.candidates) != repCandidates {
		t.Fatalf("candidates = %d, want %d", len(g.candidates), repCandidates)
	}
	// Drop every candidate: the representative falls back to the smallest
	// surviving member with a placeholder preview.
	var dropped []annotation.ID
	for _, c := range g.candidates {
		dropped = append(dropped, c.id)
	}
	slices.Sort(dropped)
	obj.Remove(dropped)
	if obj.Len() != 6-len(dropped) {
		t.Fatalf("Len = %d", obj.Len())
	}
	g = obj.sortedGroups()[0]
	if !slices.Contains(g.members, g.rep) {
		t.Fatalf("rep %d is not a member", g.rep)
	}
	if g.rep != g.min {
		t.Errorf("fallback rep = %d, want min member %d", g.rep, g.min)
	}
	if !strings.Contains(g.repPreview, "(annotation") {
		t.Errorf("fallback preview = %q", g.repPreview)
	}
}

func TestClusterCandidateOrderingAndDedup(t *testing.T) {
	g := &clusterGroup{}
	g.addCandidate(repCandidate{id: 3, preview: "c", sim: 0.5})
	g.addCandidate(repCandidate{id: 1, preview: "a", sim: 0.9})
	g.addCandidate(repCandidate{id: 2, preview: "b", sim: 0.9}) // tie: lower id first
	g.addCandidate(repCandidate{id: 1, preview: "dup", sim: 0.9})
	g.addCandidate(repCandidate{id: 4, preview: "d", sim: 0.1}) // falls off the top-3
	if len(g.candidates) != repCandidates {
		t.Fatalf("candidates = %d", len(g.candidates))
	}
	if g.candidates[0].id != 1 || g.candidates[1].id != 2 || g.candidates[2].id != 3 {
		t.Errorf("order = %v", g.candidates)
	}
	if g.candidates[0].preview != "a" {
		t.Errorf("dedup kept %q", g.candidates[0].preview)
	}
}

func TestClusterMinIDCacheUnderChurn(t *testing.T) {
	in := clusterInstance(t, "S")
	obj := in.NewObject().(*clusterObject)
	for i := 10; i >= 1; i-- { // descending insert order
		obj.Add(in.Summarize(ann(annotation.ID(i), behaviorText(1))))
	}
	g := obj.sortedGroups()[0]
	if g.min != 1 {
		t.Fatalf("min = %d", g.min)
	}
	// Removing the minimum forces a recompute.
	obj.Remove([]annotation.ID{1})
	if g.min != 2 {
		t.Errorf("min after removal = %d", g.min)
	}
	// Removing a non-minimum leaves the cache intact.
	obj.Remove([]annotation.ID{7})
	if g.min != 2 {
		t.Errorf("min after non-min removal = %d", g.min)
	}
}
