package summary

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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
	members map[annotation.ID]int // annotation id → label index
	counts  []int                 // per-label member counts
}

func newClassifierObject(in *Instance) *classifierObject {
	return &classifierObject{
		inst:    in,
		members: make(map[annotation.ID]int),
		counts:  make([]int, len(in.Classifier.Labels())),
	}
}

// Instance implements Object.
func (c *classifierObject) Instance() *Instance { return c.inst }

// Contains implements Object.
func (c *classifierObject) Contains(id annotation.ID) bool {
	_, ok := c.members[id]
	return ok
}

// Add implements Object.
func (c *classifierObject) Add(d Digest) {
	if c.Contains(d.Ann) {
		return
	}
	if d.LabelIndex < 0 || d.LabelIndex >= len(c.counts) {
		panic(fmt.Sprintf("summary: label index %d out of range for instance %q", d.LabelIndex, c.inst.Name))
	}
	c.members[d.Ann] = d.LabelIndex
	c.counts[d.LabelIndex]++
}

// Remove implements Object.
func (c *classifierObject) Remove(drop func(annotation.ID) bool) {
	for id, li := range c.members {
		if drop(id) {
			delete(c.members, id)
			c.counts[li]--
		}
	}
}

// MergeFrom implements Object: members already present are not double
// counted (the paper's "22 instead of 27" rule).
func (c *classifierObject) MergeFrom(other Object) {
	o := mustClassifier(other, c.inst)
	for id, li := range o.members {
		if !c.Contains(id) {
			c.members[id] = li
			c.counts[li]++
		}
	}
}

// Clone implements Object.
func (c *classifierObject) Clone() Object {
	cp := &classifierObject{
		inst:    c.inst,
		members: make(map[annotation.ID]int, len(c.members)),
		counts:  make([]int, len(c.counts)),
	}
	for id, li := range c.members {
		cp.members[id] = li
	}
	copy(cp.counts, c.counts)
	return cp
}

// Members implements Object.
func (c *classifierObject) Members() []annotation.ID { return sortedIDs(mapKeys(c.members)) }

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
// and cut from one backing array.
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
	for id, li := range c.members {
		out[li].IDs = append(out[li].IDs, id)
	}
	for i := range out {
		slices.Sort(out[i].IDs)
	}
	return out
}

// Zoom implements Object.
func (c *classifierObject) Zoom(index int) ([]annotation.ID, error) { return zoom(c, index) }

// Render implements Object.
func (c *classifierObject) Render() string { return memoised(&c.shown.text, c.isShared(), c.render) }

func (c *classifierObject) render() string {
	var b strings.Builder
	b.WriteString(c.inst.Name)
	b.WriteString(" [")
	for i, l := range c.inst.Classifier.Labels() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		b.WriteString(l)
		b.WriteString(", ")
		b.WriteString(strconv.Itoa(c.counts[i]))
		b.WriteByte(')')
	}
	b.WriteString("]")
	return b.String()
}

// ApproxBytes implements Object.
func (c *classifierObject) ApproxBytes() int {
	// id (8) + label index (1) per member, plus the counts array.
	return 9*len(c.members) + 8*len(c.counts)
}

// Equal implements Object.
func (c *classifierObject) Equal(other Object) bool {
	o, ok := other.(*classifierObject)
	if !ok || o.inst.Name != c.inst.Name || len(o.members) != len(c.members) {
		return false
	}
	for id, li := range c.members {
		if oli, ok := o.members[id]; !ok || oli != li {
			return false
		}
	}
	return true
}

func mustClassifier(o Object, in *Instance) *classifierObject {
	c, ok := o.(*classifierObject)
	if !ok || c.inst.Name != in.Name {
		panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", in.Name))
	}
	return c
}

func mapKeys[V any](m map[annotation.ID]V) []annotation.ID {
	out := make([]annotation.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

func sortedIDs(ids []annotation.ID) []annotation.ID {
	slices.Sort(ids)
	return ids
}
