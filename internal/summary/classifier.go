package summary

import (
	"fmt"
	"slices"
	"strconv"

	"insightnotes/internal/annotation"
)

// classifierObject summarizes a tuple's annotations as per-label counts —
// the paper's ClassBird-style objects, e.g.
// "[(Behavior, 33), (Disease, 8), (Anatomy, 25), (Other, 16)]".
//
// Per member it retains only the assigned label index, which is what makes
// projection (decrementing the annotationCnt fields, in the paper's terms)
// and zoom-in (resolving a label to its member ids) possible without the
// raw annotations.
type classifierObject struct {
	sharedFlag
	shown   presentation
	inst    *Instance
	members []labelEntry // sorted by annotation id
	counts  []int        // per-label member counts
}

// labelEntry is one member annotation and the index of its class label.
type labelEntry struct {
	id    annotation.ID
	label int
}

func labelID(m labelEntry) annotation.ID { return m.id }

func newClassifierObject(in *Instance) *classifierObject {
	return &classifierObject{
		inst:   in,
		counts: make([]int, len(in.Classifier.Labels())),
	}
}

// Instance implements Object.
func (c *classifierObject) Instance() *Instance { return c.inst }

// Contains implements Object.
func (c *classifierObject) Contains(id annotation.ID) bool {
	_, ok := search(c.members, id, labelID)
	return ok
}

// Add implements Object.
func (c *classifierObject) Add(d Digest) {
	i, ok := search(c.members, d.Ann, labelID)
	if ok {
		return
	}
	if d.LabelIndex < 0 || d.LabelIndex >= len(c.counts) {
		panic(fmt.Sprintf("summary: label index %d out of range for instance %q", d.LabelIndex, c.inst.Name))
	}
	c.members = slices.Insert(c.members, i, labelEntry{d.Ann, d.LabelIndex})
	c.counts[d.LabelIndex]++
}

// Remove implements Object.
func (c *classifierObject) Remove(ids []annotation.ID) Object {
	kept := without(c.members, ids, labelID, !c.isShared())
	if len(kept) == len(c.members) {
		return c
	}
	out := c
	if c.isShared() {
		out = &classifierObject{inst: c.inst, counts: make([]int, len(c.counts))}
	}
	clear(out.counts)
	for _, m := range kept {
		out.counts[m.label]++
	}
	out.members = kept
	return out
}

// MergeFrom implements Object: it unions the id lists and adds the
// per-label counts, less one for each member already present (the paper's
// "22 instead of 27" rule).
func (c *classifierObject) MergeFrom(others ...Object) Object {
	lists := make([][]labelEntry, 1, len(others)+1)
	lists[0] = c.members
	counts := slices.Clone(c.counts)
	for _, other := range others {
		o := mustClassifier(other, c.inst)
		lists = append(lists, o.members)
		for i, n := range o.counts {
			counts[i] += n
		}
	}
	members := mergeSorted(lists, labelID, func(_ *labelEntry, dup labelEntry) { counts[dup.label]-- })
	out := c
	if c.isShared() {
		out = &classifierObject{inst: c.inst}
	}
	out.members, out.counts = members, counts
	return out
}

// Clone implements Object.
func (c *classifierObject) Clone() Object {
	return &classifierObject{inst: c.inst, members: slices.Clone(c.members), counts: slices.Clone(c.counts)}
}

// Members implements Object.
func (c *classifierObject) Members() []annotation.ID { return idsOf(c.members, labelID) }

// Len implements Object.
func (c *classifierObject) Len() int { return len(c.members) }

// LabelCount returns the member count of the given 0-based label index.
func (c *classifierObject) LabelCount(i int) int { return c.counts[i] }

// Elements implements Object: one element per class label, in label order
// (the paper's "On NaiveBayesClass Index 1" addresses the first label). A
// label no member carries has a nil id list.
func (c *classifierObject) Elements() []Element {
	return memoised(&c.shown.elems, c.isShared(), c.elements)
}

// elements computes Elements: the id lists are sized by the label counts
// and cut from one backing array, and filled in member order, which is id
// order.
func (c *classifierObject) elements() []Element {
	out := make([]Element, len(c.counts))
	ids := make([]annotation.ID, len(c.members))
	from := 0
	for i, l := range c.inst.Classifier.Labels() {
		out[i].Label = l
		if n := c.counts[i]; n > 0 {
			out[i].IDs = ids[from : from : from+n]
			from += n
		}
	}
	for _, m := range c.members {
		out[m.label].IDs = append(out[m.label].IDs, m.id)
	}
	return out
}

// Zoom implements Object.
func (c *classifierObject) Zoom(index int) ([]annotation.ID, error) { return zoom(c, index) }

// Render implements Object.
func (c *classifierObject) Render() string { return rendered(&c.shown, c) }

func (c *classifierObject) appendRender(dst []byte) []byte {
	dst = append(dst, c.inst.Name...)
	dst = append(dst, " ["...)
	for i, l := range c.inst.Classifier.Labels() {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, '(')
		dst = append(dst, l...)
		dst = append(dst, ", "...)
		dst = strconv.AppendInt(dst, int64(c.counts[i]), 10)
		dst = append(dst, ')')
	}
	return append(dst, ']')
}

// ApproxBytes implements Object.
func (c *classifierObject) ApproxBytes() int {
	// id (8) + label index (1) per member, plus the counts array.
	return 9*len(c.members) + 8*len(c.counts)
}

// Equal implements Object.
func (c *classifierObject) Equal(other Object) bool {
	o, ok := other.(*classifierObject)
	return ok && o.inst.Name == c.inst.Name && slices.Equal(o.members, c.members)
}

func mustClassifier(o Object, in *Instance) *classifierObject {
	c, ok := o.(*classifierObject)
	if !ok || c.inst.Name != in.Name {
		panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", in.Name))
	}
	return c
}
