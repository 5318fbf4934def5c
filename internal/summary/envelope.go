package summary

import (
	"math/bits"
	"slices"

	"insightnotes/internal/annotation"
)

// Envelope is the complete summary state carried by one tuple through the
// query pipeline: one summary object per linked instance, plus the column
// coverage of every contributing annotation.
//
// The coverage list is the compact device that lets the projection
// operator eliminate the effect of annotations attached only to
// projected-out columns "without accessing the raw annotations" (§2.1):
// coverage is a 64-bit set per annotation, not the annotation itself.
//
// Envelopes are copy-on-write. View hands out the same coverage list and
// object map in O(1); the first mutator called on either side afterwards
// copies the two, and an object both sides reference is cloned only by the
// side about to change it. Code outside this package reads coverage
// through CoverOf and EachCover, reads Objects, and writes both only
// through the methods (internal/lint enforces it for Objects).
type Envelope struct {
	// cover lists each contributing annotation with the columns of the
	// current tuple shape it covers, sorted by annotation id.
	cover []coverEntry
	// Objects holds the summary objects keyed by instance name.
	Objects map[string]Object
	// shared is set while another envelope may reference cover and
	// Objects. Atomic because concurrent readers of the engine's store
	// each set it on the stored envelope under a read lock.
	shared sharedFlag
}

// coverEntry is one annotation's coverage.
type coverEntry struct {
	id   annotation.ID
	cols annotation.ColSet
}

func coverID(c coverEntry) annotation.ID { return c.id }

func unionCover(kept *coverEntry, dup coverEntry) { kept.cols |= dup.cols }

// NewEnvelope returns an empty envelope.
func NewEnvelope() *Envelope {
	return &Envelope{Objects: make(map[string]Object)}
}

// Add incorporates one annotation digest under instance in, covering cols
// of the tuple. The object is created on first use; a digest the object
// type ignores (e.g. a non-document annotation under a Snippet instance)
// leaves no empty object behind and contributes coverage only if the
// annotation is a member of at least one object. An annotation with a
// larger id than every present one is appended: maintenance, which adds
// annotations in id order, never copies the lists it extends.
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
		i, ok := search(e.cover, d.Ann, coverID)
		if ok {
			e.cover[i].cols |= cols
		} else {
			e.cover = slices.Insert(e.cover, i, coverEntry{d.Ann, cols})
		}
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

// View returns an envelope with e's contents that shares e's coverage list
// and objects until either side is mutated. The caller must exclude
// concurrent mutators of e (the store's stripe lock); concurrent View
// calls are fine.
func (e *Envelope) View() *Envelope {
	e.shared.share()
	v := &Envelope{cover: e.cover, Objects: e.Objects}
	v.shared.share()
	return v
}

// write makes e's coverage list and object map private before a mutation.
func (e *Envelope) write() {
	if e.shared.isShared() {
		e.cover = slices.Clone(e.cover)
		e.writeObjects()
	}
}

// writeObjects is write without the coverage copy, for the callers that
// replace the coverage list anyway. The objects stay where they are and are
// latched shared: the other holder still references them.
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

// Clone returns a copy of the envelope with its own coverage list and
// objects, which shares nothing with e that either side can change in place
// (see Object.Clone).
func (e *Envelope) Clone() *Envelope {
	cp := &Envelope{
		cover:   slices.Clone(e.cover),
		Objects: make(map[string]Object, len(e.Objects)),
	}
	for name, obj := range e.Objects {
		cp.Objects[name] = obj.Clone()
	}
	return cp
}

// IsEmpty reports whether the envelope carries no annotations.
func (e *Envelope) IsEmpty() bool { return len(e.cover) == 0 }

// Len returns the number of contributing annotations.
func (e *Envelope) Len() int { return len(e.cover) }

// CoverOf returns the columns annotation id covers, empty when it does not
// contribute.
func (e *Envelope) CoverOf(id annotation.ID) annotation.ColSet {
	if i, ok := search(e.cover, id, coverID); ok {
		return e.cover[i].cols
	}
	return 0
}

// EachCover calls fn with every contributing annotation and its columns,
// in ascending id order.
func (e *Envelope) EachCover(fn func(id annotation.ID, cols annotation.ColSet)) {
	for _, c := range e.cover {
		fn(c.id, c.cols)
	}
}

// Project applies the paper's project-on-summary-objects operation for an
// output tuple consisting of the input columns keep (in output order):
// every annotation whose coverage misses all kept columns is eliminated
// from the coverage list and from every object (decrementing classifier
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
// empty coverage are removed from all objects. One pass over the coverage
// list writes the remapped list: over the old one when e is private, into
// a new one, from the first entry that changes, when it is shared. A shared
// envelope that nothing changes is left as it is and costs no allocation.
func (e *Envelope) RemapColumns(mapping []annotation.ColSet) {
	shared := e.shared.isShared()
	src, dst := e.cover, []coverEntry(nil)
	if !shared {
		dst = src[:0]
	}
	var dropped []annotation.ID
	for i, c := range src {
		var out annotation.ColSet
		for rest := uint64(c.cols); rest != 0; rest &= rest - 1 {
			col := bits.TrailingZeros64(rest)
			if col >= len(mapping) {
				break
			}
			out |= mapping[col]
		}
		if shared && dst == nil {
			if out == c.cols {
				continue
			}
			dst = append(make([]coverEntry, 0, len(src)), src[:i]...)
		}
		if out == 0 {
			dropped = append(dropped, c.id)
			continue
		}
		dst = append(dst, coverEntry{c.id, out})
	}
	if shared && dst == nil {
		return
	}
	e.cover = dst
	if shared {
		for _, obj := range e.Objects {
			obj.share() // the other holder references them
		}
	}
	e.curate(dropped)
}

// Curate drops every annotation whose coverage misses keep, from the
// coverage list and from every object: RemapColumns with the kept columns
// mapped to themselves.
func (e *Envelope) Curate(keep annotation.ColSet) {
	var mapping [64]annotation.ColSet
	for rest := uint64(keep); rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		mapping[i] = annotation.Col(i)
	}
	e.RemapColumns(mapping[:])
}

// curate retracts the dropped annotations (sorted ascending) from every
// object: an object holding none of them stays as it is, a shared one
// holding some is replaced by a changed copy, and an emptied one is
// dropped. The object map of a shared envelope, whose objects the caller
// has latched shared, is copied only when one of them changes, so a
// projection that drops nothing leaves a view's object map shared.
func (e *Envelope) curate(dropped []annotation.ID) {
	if len(dropped) == 0 {
		return
	}
	for name, obj := range e.Objects {
		out := obj.Remove(dropped)
		if out == obj && out.Len() > 0 {
			continue
		}
		if e.shared.isShared() {
			e.writeObjects()
		}
		if out.Len() == 0 {
			delete(e.Objects, name)
		} else {
			e.Objects[name] = out
		}
	}
}

// Merge combines o into e for a join whose output tuple is the left input
// (width leftWidth) concatenated with the right input: one two-pointer pass
// over both coverage lists writes the merged list, o's coverage shifted
// past leftWidth, and objects of the same instance are merged with the
// double-count guard; objects present on only one side propagate unchanged
// (the paper's ClassBird1/TextSummary1 behaviour in Figure 2) — o's are
// adopted shared, not copied. o is only read.
func (e *Envelope) Merge(o *Envelope, leftWidth int) {
	if e.shared.isShared() {
		e.writeObjects()
	}
	a, b := e.cover, o.cover
	out := make([]coverEntry, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch x, y := a[0], b[0]; {
		case x.id < y.id:
			out = append(out, x)
			a = a[1:]
		case y.id < x.id:
			out = append(out, coverEntry{y.id, y.cols.Shift(leftWidth)})
			b = b[1:]
		default:
			out = append(out, coverEntry{x.id, x.cols | y.cols.Shift(leftWidth)})
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	for _, y := range b {
		out = append(out, coverEntry{y.id, y.cols.Shift(leftWidth)})
	}
	e.cover = out
	e.mergeObjects([]*Envelope{o})
}

// Combine merges others into e for operators where all inputs share the
// output tuple shape (grouping, duplicate elimination): coverage unions
// without shifting. It is one k-way pass over every input, however many:
// over the coverage lists (see mergeSorted), and over each instance's
// objects (see the MergeFrom methods). A GROUP BY therefore combines a
// group's rows once, when its input is drained, rather than merging each
// row into a growing accumulator. others are only read.
func (e *Envelope) Combine(others ...*Envelope) {
	if len(others) == 0 {
		return
	}
	lists := make([][]coverEntry, 1, len(others)+1)
	lists[0] = e.cover
	for _, o := range others {
		lists = append(lists, o.cover)
	}
	if e.shared.isShared() {
		e.writeObjects()
	}
	e.cover = mergeSorted(lists, coverID, unionCover)
	e.mergeObjects(others)
}

// mergeObjects merges, per instance, the objects of others into e's, in
// input order. An instance e lacks starts from the first object others
// hold, adopted shared.
func (e *Envelope) mergeObjects(others []*Envelope) {
	var names [4]string
	done := names[:0] // instances merged so far; an envelope holds a few
	var objs []Object
	for i, o := range others {
		for name := range o.Objects {
			if slices.Contains(done, name) {
				continue
			}
			done = append(done, name)
			objs = objs[:0]
			for _, later := range others[i:] {
				if obj, ok := later.Objects[name]; ok {
					objs = append(objs, obj)
				}
			}
			first, ok := e.Objects[name]
			if !ok {
				first, objs = objs[0], objs[1:]
				first.share()
			}
			if len(objs) > 0 {
				first = first.MergeFrom(objs...)
			}
			e.Objects[name] = first
		}
	}
}

// RemoveAnnotation retracts one annotation's effect from every object and
// the coverage list — the maintenance counterpart of deleting a raw
// annotation. Objects emptied by the retraction are dropped.
func (e *Envelope) RemoveAnnotation(id annotation.ID) {
	if e.CoverOf(id).Empty() {
		return
	}
	e.write()
	ids := []annotation.ID{id}
	e.cover = without(e.cover, ids, coverID, true)
	e.curate(ids)
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
	e.cover = slices.DeleteFunc(e.cover, func(c coverEntry) bool { return !e.memberAnywhere(c.id) })
}

// Object returns the object of the named instance, or nil.
func (e *Envelope) Object(instance string) Object { return e.Objects[instance] }

// InstanceNames returns the instance names present, sorted.
func (e *Envelope) InstanceNames() []string {
	return e.AppendInstanceNames(make([]string, 0, len(e.Objects)))
}

// AppendInstanceNames appends the instance names present, sorted, to dst,
// for a caller that walks many envelopes' objects in name order with one
// reused slice.
func (e *Envelope) AppendInstanceNames(dst []string) []string {
	n := len(dst)
	for name := range e.Objects {
		dst = append(dst, name)
	}
	slices.Sort(dst[n:])
	return dst
}

// Annotations returns every contributing annotation id, sorted.
func (e *Envelope) Annotations() []annotation.ID { return idsOf(e.cover, coverID) }

// Equal reports whether two envelopes are semantically identical: same
// coverage and equal objects per instance. This is the comparison behind
// the plan-equivalence tests (E3).
func (e *Envelope) Equal(o *Envelope) bool {
	if !slices.Equal(e.cover, o.cover) || len(e.Objects) != len(o.Objects) {
		return false
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
	var b []byte
	for i, name := range e.InstanceNames() {
		if i > 0 {
			b = append(b, '\n')
		}
		b = AppendRender(b, e.Objects[name])
	}
	return string(b)
}

// ApproxBytes estimates the envelope's in-memory size (coverage plus all
// objects) for the E1 compression benchmarks.
func (e *Envelope) ApproxBytes() int {
	n := 16 * len(e.cover)
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
