package summary

import (
	"maps"
	"slices"
	"strings"

	"insightnotes/internal/annotation"
)

// Envelope is the complete summary state carried by one tuple through the
// query pipeline: one summary object per linked instance, plus the column
// coverage of every contributing annotation.
//
// The coverage map is the compact device that lets the projection operator
// eliminate the effect of annotations attached only to projected-out
// columns "without accessing the raw annotations" (§2.1): coverage is a
// 64-bit set per annotation, not the annotation itself.
//
// Envelopes are copy-on-write. View hands out the same maps in O(1); the
// first mutator called on either side afterwards copies the two maps, and
// an object both sides reference is cloned only by the side about to
// change it. Code outside this package reads Cover and Objects and writes
// them only through the methods (internal/lint enforces it).
type Envelope struct {
	// Cover maps each contributing annotation to the columns of the
	// current tuple shape it covers.
	Cover map[annotation.ID]annotation.ColSet
	// Objects holds the summary objects keyed by instance name.
	Objects map[string]Object
	// shared is set while another envelope may reference Cover and
	// Objects. Atomic because concurrent readers of the engine's store
	// each set it on the stored envelope under a read lock.
	shared sharedFlag
}

// NewEnvelope returns an empty envelope.
func NewEnvelope() *Envelope {
	return &Envelope{
		Cover:   make(map[annotation.ID]annotation.ColSet),
		Objects: make(map[string]Object),
	}
}

// Add incorporates one annotation digest under instance in, covering cols
// of the tuple. The object is created on first use; a digest the object
// type ignores (e.g. a non-document annotation under a Snippet instance)
// leaves no empty object behind and contributes coverage only if the
// annotation is a member of at least one object.
func (e *Envelope) Add(in *Instance, d Digest, cols annotation.ColSet) {
	e.write()
	var obj Object
	if _, existed := e.Objects[in.Name]; existed {
		obj = e.own(in.Name)
	} else {
		obj = in.NewObject()
	}
	obj.Add(d)
	if obj.Len() > 0 {
		e.Objects[in.Name] = obj
	}
	if obj.Contains(d.Ann) || e.memberAnywhere(d.Ann) {
		e.Cover[d.Ann] = e.Cover[d.Ann].Union(cols)
	}
}

// memberAnywhere reports whether id contributes to any object.
func (e *Envelope) memberAnywhere(id annotation.ID) bool {
	for _, obj := range e.Objects {
		if obj.Contains(id) {
			return true
		}
	}
	return false
}

// View returns an envelope with e's contents that shares e's maps and
// objects until either side is mutated. The caller must exclude concurrent
// mutators of e (the store's stripe lock); concurrent View calls are fine.
func (e *Envelope) View() *Envelope {
	e.shared.share()
	v := &Envelope{Cover: e.Cover, Objects: e.Objects}
	v.shared.share()
	return v
}

// write makes e's maps private before a mutation.
func (e *Envelope) write() {
	if e.shared.isShared() {
		e.Cover = maps.Clone(e.Cover)
		e.writeObjects()
	}
}

// writeObjects is write without the coverage copy, for the caller that
// replaces Cover anyway. The objects stay where they are and are latched
// shared: the other holder still references them.
func (e *Envelope) writeObjects() {
	objs := make(map[string]Object, len(e.Objects))
	for name, obj := range e.Objects {
		obj.share()
		objs[name] = obj
	}
	e.Objects = objs
	e.shared.on.Store(false)
}

// own returns e's object of the named instance ready to be changed: a
// shared one is first replaced by its clone. Callers have called write.
func (e *Envelope) own(name string) Object {
	obj := e.Objects[name]
	if obj.isShared() {
		obj = obj.Clone()
		e.Objects[name] = obj
	}
	return obj
}

// Clone returns a copy of the envelope with its own maps and objects, which
// shares nothing with e that either side can change in place (see
// Object.Clone).
func (e *Envelope) Clone() *Envelope {
	cp := &Envelope{
		Cover:   maps.Clone(e.Cover),
		Objects: make(map[string]Object, len(e.Objects)),
	}
	for name, obj := range e.Objects {
		cp.Objects[name] = obj.Clone()
	}
	return cp
}

// IsEmpty reports whether the envelope carries no annotations.
func (e *Envelope) IsEmpty() bool { return len(e.Cover) == 0 }

// Project applies the paper's project-on-summary-objects operation for an
// output tuple consisting of the input columns keep (in output order):
// every annotation whose coverage misses all kept columns is eliminated
// from the coverage map and from every object (decrementing classifier
// counts, shrinking cluster groups and re-electing representatives,
// deleting snippets), and surviving coverage is rebased to output ordinals.
func (e *Envelope) Project(keep []int) {
	mapping := make([]annotation.ColSet, maxOrdinal(keep)+1)
	for out, in := range keep {
		mapping[in] = mapping[in].Union(annotation.Col(out))
	}
	e.RemapColumns(mapping)
}

// RemapColumns generalizes Project for operators that fan columns in or
// out (grouping, aggregation): mapping[i] is the output coverage that
// input column i contributes to (zero = dropped). Annotations left with
// empty coverage are removed from all objects.
func (e *Envelope) RemapColumns(mapping []annotation.ColSet) {
	src := e.Cover
	if e.shared.isShared() {
		// The remapped coverage is written straight into the private map.
		e.Cover = make(map[annotation.ID]annotation.ColSet, len(src))
		e.writeObjects()
	}
	var dropped map[annotation.ID]bool
	for id, cover := range src {
		var out annotation.ColSet
		for i := 0; i < 64 && i < len(mapping); i++ {
			if cover.Has(i) {
				out = out.Union(mapping[i])
			}
		}
		if out.Empty() {
			if dropped == nil {
				dropped = make(map[annotation.ID]bool)
			}
			dropped[id] = true
			delete(e.Cover, id)
		} else {
			e.Cover[id] = out
		}
	}
	e.curate(dropped)
}

// curate retracts the dropped annotations from every object that holds one
// — only those are cloned when shared — and drops emptied objects.
func (e *Envelope) curate(dropped map[annotation.ID]bool) {
	if len(dropped) == 0 {
		return
	}
	drop := func(id annotation.ID) bool { return dropped[id] }
	for name, obj := range e.Objects {
		hits := 0
		for id := range dropped {
			if obj.Contains(id) {
				hits++
			}
		}
		switch {
		case hits == obj.Len():
			delete(e.Objects, name)
		case hits > 0:
			e.own(name).Remove(drop)
		}
	}
}

// Merge combines o into e for a join whose output tuple is the left input
// (width leftWidth) concatenated with the right input: o's coverage shifts
// past leftWidth, and objects of the same instance are merged with the
// double-count guard; objects present on only one side propagate unchanged
// (the paper's ClassBird1/TextSummary1 behaviour in Figure 2) — o's are
// adopted shared, not copied.
func (e *Envelope) Merge(o *Envelope, leftWidth int) {
	e.write()
	for id, c := range o.Cover {
		e.Cover[id] = e.Cover[id].Union(c.Shift(leftWidth))
	}
	e.mergeObjects(o)
}

// Combine merges o into e for operators where both inputs share the output
// tuple shape (grouping, duplicate elimination): coverage unions without
// shifting.
func (e *Envelope) Combine(o *Envelope) {
	e.write()
	for id, c := range o.Cover {
		e.Cover[id] = e.Cover[id].Union(c)
	}
	e.mergeObjects(o)
}

func (e *Envelope) mergeObjects(o *Envelope) {
	for name, obj := range o.Objects {
		if _, ok := e.Objects[name]; ok {
			e.own(name).MergeFrom(obj)
		} else {
			obj.share()
			e.Objects[name] = obj
		}
	}
}

// RemoveAnnotation retracts one annotation's effect from every object and
// the coverage map — the maintenance counterpart of deleting a raw
// annotation. Objects emptied by the retraction are dropped.
func (e *Envelope) RemoveAnnotation(id annotation.ID) {
	if _, ok := e.Cover[id]; !ok {
		return
	}
	e.write()
	delete(e.Cover, id)
	e.curate(map[annotation.ID]bool{id: true})
}

// RemoveInstance deletes the named instance's object and drops coverage
// entries for annotations no longer contributing to any remaining object —
// the envelope side of unlinking an instance from a relation.
func (e *Envelope) RemoveInstance(name string) {
	if _, ok := e.Objects[name]; !ok {
		return
	}
	e.write()
	delete(e.Objects, name)
	e.PruneCover()
}

// PruneCover drops coverage entries for annotations that contribute to no
// object.
func (e *Envelope) PruneCover() {
	e.write()
	live := make(map[annotation.ID]bool)
	for _, obj := range e.Objects {
		for _, id := range obj.Members() {
			live[id] = true
		}
	}
	for id := range e.Cover {
		if !live[id] {
			delete(e.Cover, id)
		}
	}
}

// Object returns the object of the named instance, or nil.
func (e *Envelope) Object(instance string) Object { return e.Objects[instance] }

// Label returns the label index the named classifier instance's object
// gave annotation id, and whether the object holds id (false for any other
// object type).
func (e *Envelope) Label(instance string, id annotation.ID) (int, bool) {
	c, ok := e.Objects[instance].(*classifierObject)
	if !ok {
		return 0, false
	}
	li, ok := c.members[id]
	return li, ok
}

// InstanceNames returns the instance names present, sorted.
func (e *Envelope) InstanceNames() []string {
	out := make([]string, 0, len(e.Objects))
	for name := range e.Objects {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Annotations returns every contributing annotation id, sorted.
func (e *Envelope) Annotations() []annotation.ID {
	return sortedIDs(mapKeys(e.Cover))
}

// Equal reports whether two envelopes are semantically identical: same
// coverage and equal objects per instance. This is the comparison behind
// the plan-equivalence tests (E3).
func (e *Envelope) Equal(o *Envelope) bool {
	if len(e.Cover) != len(o.Cover) || len(e.Objects) != len(o.Objects) {
		return false
	}
	for id, c := range e.Cover {
		if oc, ok := o.Cover[id]; !ok || oc != c {
			return false
		}
	}
	for name, obj := range e.Objects {
		oobj, ok := o.Objects[name]
		if !ok || !obj.Equal(oobj) {
			return false
		}
	}
	return true
}

// Render formats the envelope's objects in instance-name order, one per
// line.
func (e *Envelope) Render() string {
	var b strings.Builder
	for i, name := range e.InstanceNames() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Objects[name].Render())
	}
	return b.String()
}

// ApproxBytes estimates the envelope's in-memory size (coverage map plus
// all objects) for the E1 compression benchmarks.
func (e *Envelope) ApproxBytes() int {
	n := 16 * len(e.Cover)
	for _, obj := range e.Objects {
		n += obj.ApproxBytes()
	}
	return n
}

func maxOrdinal(idxs []int) int {
	max := 0
	for _, i := range idxs {
		if i > max {
			max = i
		}
	}
	return max
}
