package summary

import (
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

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
// object list in O(1); the first mutator called on either side afterwards
// copies the two, and an object both sides reference is cloned only by the
// side about to change it. A projection of a shared envelope that drops no
// annotation copies nothing either: the envelope keeps the shared list and
// records the operator's ColMap, which every reader of coverage applies
// (see RemapColumns). Code outside this package reads coverage through
// CoverOf and EachCover and objects through Object and ObjectAt, and
// changes both only through the methods.
type Envelope struct {
	// cover lists each contributing annotation with the columns it covers,
	// sorted by annotation id: columns of the current tuple shape, or of
	// the shape before cmap when cmap is set.
	cover []coverEntry
	// objs holds one non-empty summary object per instance, strictly
	// ascending by instance name.
	objs []namedObject
	// cmap is the pending column map: nil, or set only while cover is
	// shared, and then sending every entry's columns somewhere, so that
	// it defers column bits only and never hides a dropped annotation.
	cmap *ColMap
	// shared is set while another envelope may reference cover and objs.
	// Atomic because concurrent readers each set it on the stored
	// envelope they view.
	shared sharedFlag
}

// ColMap is a column remapping for an operator that projects, reorders or
// fans columns in or out (grouping, aggregation): input column i
// contributes to the output columns mapping[i] (zero = dropped). It is
// built once per operator and its mapping never changes, so envelopes may
// hold it as their pending map.
type ColMap struct {
	mapping []annotation.ColSet
	live    annotation.ColSet // input columns mapped to a non-zero output
	image   annotation.ColSet // the union of the outputs
	fixed   annotation.ColSet // input columns mapped to exactly themselves
	// composed memoises the last composition after (see after).
	composed atomic.Pointer[composition]
}

// composition is the map that applies inner, then the map memoising it.
type composition struct{ inner, whole *ColMap }

// NewColMap builds the map over mapping, which it keeps: the caller must
// not change mapping afterwards.
func NewColMap(mapping []annotation.ColSet) *ColMap {
	m := &ColMap{mapping: mapping}
	for i, out := range m.mapping {
		if out != 0 {
			m.live |= annotation.Col(i)
		}
		if out == annotation.Col(i) {
			m.fixed |= annotation.Col(i)
		}
		m.image |= out
	}
	return m
}

// Live returns the input columns the map sends somewhere.
func (m *ColMap) Live() annotation.ColSet { return m.live }

// after returns the map that applies inner, then m. The rows an operator
// remaps all carry the same map from the operator below it, so it is built
// once and memoised for the last inner map.
func (m *ColMap) after(inner *ColMap) *ColMap {
	if c := m.composed.Load(); c != nil && c.inner == inner {
		return c.whole
	}
	mapping := make([]annotation.ColSet, len(inner.mapping))
	for i, out := range inner.mapping {
		mapping[i] = m.apply(out)
	}
	whole := NewColMap(mapping)
	m.composed.Store(&composition{inner, whole})
	return whole
}

// apply returns the output columns of cols; a nil map is the identity.
func (m *ColMap) apply(cols annotation.ColSet) annotation.ColSet {
	if m == nil {
		return cols
	}
	var out annotation.ColSet
	for rest := uint64(cols & m.live); rest != 0; rest &= rest - 1 {
		out |= m.mapping[bits.TrailingZeros64(rest)]
	}
	return out
}

// namedObject is one instance's object.
type namedObject struct {
	name string
	obj  Object
}

// coverEntry is one annotation's coverage.
type coverEntry struct {
	id   annotation.ID
	cols annotation.ColSet
}

func coverID(c coverEntry) annotation.ID { return c.id }

// NewEnvelope returns an empty envelope.
func NewEnvelope() *Envelope { return &Envelope{} }

// find returns the position of the named instance's object in e.objs, or
// where it would be inserted, and whether it is there.
func (e *Envelope) find(name string) (int, bool) {
	return slices.BinarySearchFunc(e.objs, name, func(o namedObject, name string) int { return strings.Compare(o.name, name) })
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
	i, existed := e.find(in.Name)
	var obj Object
	if existed {
		obj = e.own(i)
	} else {
		obj = in.NewObject()
	}
	obj.Add(d)
	if !existed && obj.Len() > 0 {
		e.objs = slices.Insert(e.objs, i, namedObject{in.Name, obj})
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
	for _, o := range e.objs {
		if o.obj.Contains(id) {
			return true
		}
	}
	return false
}

// View returns an envelope with e's contents that shares e's coverage list
// and objects until either side is mutated. The caller must exclude
// concurrent mutators of e (the engine writes a stored envelope in place
// only under its exclusive statement lock); concurrent View calls are
// fine.
func (e *Envelope) View() *Envelope {
	e.shared.share()
	v := &Envelope{cover: e.cover, objs: e.objs, cmap: e.cmap}
	v.shared.share()
	return v
}

// write makes e's coverage list and object list private before a mutation,
// resolving the pending map in the coverage copy.
func (e *Envelope) write() {
	if e.shared.isShared() {
		e.cover, e.cmap = e.resolvedCover(), nil
		e.writeObjects()
	}
}

// resolvedCover returns a copy of e's coverage with the pending map
// applied.
func (e *Envelope) resolvedCover() []coverEntry {
	out := slices.Clone(e.cover)
	if m := e.cmap; m != nil {
		for i := range out {
			out[i].cols = m.apply(out[i].cols)
		}
	}
	return out
}

// writeObjects is write without the coverage copy, for the callers that
// replace the coverage list anyway. The objects stay where they are and are
// latched shared: the other holder still references them.
func (e *Envelope) writeObjects() {
	e.shareObjects()
	e.objs = slices.Clone(e.objs)
	e.shared.on.Store(false)
}

// shareObjects latches every object shared: another envelope references
// them, and a shared object memoises its presentation.
func (e *Envelope) shareObjects() {
	for _, o := range e.objs {
		o.obj.share()
	}
}

// own returns e's i-th object ready to be changed: a shared one is first
// replaced by its clone. Callers have called write.
func (e *Envelope) own(i int) Object {
	obj := e.objs[i].obj
	if obj.isShared() {
		obj = obj.Clone()
		e.objs[i].obj = obj
	}
	return obj
}

// Clone returns a copy of the envelope with its own coverage list and
// objects, which shares nothing with e that either side can change in place
// (see Object.Clone).
func (e *Envelope) Clone() *Envelope {
	cp := &Envelope{cover: e.resolvedCover(), objs: make([]namedObject, len(e.objs))}
	for i, o := range e.objs {
		cp.objs[i] = namedObject{o.name, o.obj.Clone()}
	}
	return cp
}

// IsEmpty reports whether the envelope carries no annotations. It, Len and
// Annotations read the coverage list as it is: a pending map drops no entry.
func (e *Envelope) IsEmpty() bool { return len(e.cover) == 0 }

// Len returns the number of contributing annotations.
func (e *Envelope) Len() int { return len(e.cover) }

// CoverOf returns the columns annotation id covers, empty when it does not
// contribute.
func (e *Envelope) CoverOf(id annotation.ID) annotation.ColSet {
	if i, ok := search(e.cover, id, coverID); ok {
		return e.cmap.apply(e.cover[i].cols)
	}
	return 0
}

// EachCover calls fn with every contributing annotation and its columns,
// in ascending id order.
func (e *Envelope) EachCover(fn func(id annotation.ID, cols annotation.ColSet)) {
	for _, c := range e.cover {
		fn(c.id, e.cmap.apply(c.cols))
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
	e.RemapColumns(NewColMap(mapping))
}

// RemapColumns generalizes Project to any column map m (see ColMap).
// Annotations left with empty coverage are removed from all objects. A
// shared envelope keeps its coverage list when the remap drops nothing: it
// records m, or m composed after the map it already holds, as its pending
// map, at one AND per entry and no allocation; and a map that leaves every
// column of the pending map's image as it is costs nothing at all.
// Otherwise one pass over the coverage list writes the remapped list: over
// the old list when e is private, into a new one, from the first entry that
// changes, when it is shared.
func (e *Envelope) RemapColumns(m *ColMap) {
	switch {
	case e.cmap != nil && e.cmap.image&^m.fixed == 0:
		return
	case e.cmap != nil:
		m = m.after(e.cmap)
	case !e.shared.isShared():
		e.remap(m, ^annotation.ColSet(0))
		return
	}
	if slices.ContainsFunc(e.cover, func(c coverEntry) bool { return c.cols&m.live == 0 }) {
		e.remap(m, ^annotation.ColSet(0))
		return
	}
	if e.cmap == nil {
		e.shareObjects()
	}
	e.cmap = m
}

// Curate drops every annotation whose coverage misses keep, from the
// coverage list and from every object: RemapColumns with the kept columns
// mapped to themselves. An envelope whose pending map yields only columns
// in keep is left as it is.
func (e *Envelope) Curate(keep annotation.ColSet) {
	if e.cmap != nil && e.cmap.image&^keep == 0 {
		return
	}
	e.remap(e.cmap, keep)
}

// remap rewrites the columns of each entry of the coverage list as it is
// stored (m replaces any pending map) through m, then the mask keep, and
// retracts the annotations left with none. A shared envelope that nothing
// changes keeps its list and costs no allocation.
func (e *Envelope) remap(m *ColMap, keep annotation.ColSet) {
	shared := e.shared.isShared()
	src, dst := e.cover, []coverEntry(nil)
	if !shared {
		dst = src[:0]
	}
	var dropped []annotation.ID
	for i, c := range src {
		out := m.apply(c.cols) & keep
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
	e.cmap = nil
	if shared && dst == nil {
		return
	}
	e.cover = dst
	if shared {
		e.shareObjects() // the other holder references them
	}
	e.curate(dropped)
}

// curate retracts the dropped annotations (sorted ascending) from every
// object: an object holding none of them stays as it is, a shared one
// holding some is replaced by a changed copy, and an emptied one is
// dropped. The object list of a shared envelope, whose objects the caller
// has latched shared, is copied only when one of them changes, so a
// projection that drops nothing leaves a view's object list shared.
func (e *Envelope) curate(dropped []annotation.ID) {
	if len(dropped) == 0 {
		return
	}
	for i := 0; i < len(e.objs); {
		obj := e.objs[i].obj
		out := obj.Remove(dropped)
		if out == obj && out.Len() > 0 {
			i++
			continue
		}
		if e.shared.isShared() {
			e.writeObjects()
		}
		if out.Len() == 0 {
			e.objs = slices.Delete(e.objs, i, i+1)
		} else {
			e.objs[i].obj = out
			i++
		}
	}
}

// Merge combines o into e for a join whose output tuple is the left input
// (width leftWidth) concatenated with the right input: one two-pointer pass
// over both coverage lists writes the merged list, o's coverage shifted
// past leftWidth, and objects of the same instance are merged with the
// double-count guard; objects present on only one side propagate unchanged
// (the paper's ClassBird1/TextSummary1 behaviour in Figure 2) — o's are
// adopted shared, not copied. Each side's pending map is applied in the
// pass. o is only read.
func (e *Envelope) Merge(o *Envelope, leftWidth int) {
	if e.shared.isShared() {
		e.writeObjects()
	}
	a, b := e.cover, o.cover
	am, bm := e.cmap, o.cmap
	out := make([]coverEntry, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch x, y := a[0], b[0]; {
		case x.id < y.id:
			out = append(out, coverEntry{x.id, am.apply(x.cols)})
			a = a[1:]
		case y.id < x.id:
			out = append(out, coverEntry{y.id, bm.apply(y.cols).Shift(leftWidth)})
			b = b[1:]
		default:
			out = append(out, coverEntry{x.id, am.apply(x.cols) | bm.apply(y.cols).Shift(leftWidth)})
			a, b = a[1:], b[1:]
		}
	}
	for _, x := range a {
		out = append(out, coverEntry{x.id, am.apply(x.cols)})
	}
	for _, y := range b {
		out = append(out, coverEntry{y.id, bm.apply(y.cols).Shift(leftWidth)})
	}
	e.cover, e.cmap = out, nil
	e.mergeObjects([]*Envelope{o})
}

// Combine merges others into e for operators where all inputs share the
// output tuple shape (grouping, duplicate elimination): coverage unions
// without shifting. It is one k-way pass over every input, however many:
// over the coverage lists (see combineCover), and over each instance's
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
	e.cover = combineCover(lists, func(i int) *ColMap {
		if i == 0 {
			return e.cmap
		}
		return others[i-1].cmap
	})
	e.cmap = nil
	e.mergeObjects(others)
}

// combineCover merges coverage lists in one pass (see mergeSorted), taking
// each entry's columns through its list's pending map, cmapOf(list), as it
// copies them: a union and a remap commute per column. lists itself is
// overwritten.
func combineCover(lists [][]coverEntry, cmapOf func(list int) *ColMap) []coverEntry {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	out := make([]coverEntry, 0, n)
	kwayMerge(lists, coverID,
		func(list int, run []coverEntry) {
			m := cmapOf(list)
			if m == nil {
				out = append(out, run...)
				return
			}
			for _, c := range run {
				out = append(out, coverEntry{c.id, m.apply(c.cols)})
			}
		},
		func(_, list int, dup coverEntry) { out[len(out)-1].cols |= cmapOf(list).apply(dup.cols) })
	if 2*len(out) < n {
		return slices.Clone(out)
	}
	return out
}

// mergeObjects merges, per instance, the objects of others into e's, in
// input order. An instance e lacks starts from the first object others
// hold, adopted shared. An empty e is sized once, for the first input's
// instances.
func (e *Envelope) mergeObjects(others []*Envelope) {
	if cap(e.objs) == 0 {
		e.objs = make([]namedObject, 0, len(others[0].objs))
	}
	var names [4]string
	done := names[:0] // instances merged so far; an envelope holds a few
	var objs []Object
	for i, o := range others {
		for _, x := range o.objs {
			if slices.Contains(done, x.name) {
				continue
			}
			done = append(done, x.name)
			objs = objs[:0]
			for _, later := range others[i:] {
				if obj := later.Object(x.name); obj != nil {
					objs = append(objs, obj)
				}
			}
			j, ok := e.find(x.name)
			if !ok {
				objs[0].share()
				e.objs = slices.Insert(e.objs, j, namedObject{x.name, objs[0]})
				objs = objs[1:]
			}
			if len(objs) > 0 {
				e.objs[j].obj = e.objs[j].obj.MergeFrom(objs...)
			}
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
	i, ok := e.find(name)
	if !ok {
		return
	}
	e.write()
	e.objs = slices.Delete(e.objs, i, i+1)
	e.PruneCover()
}

// PruneCover drops coverage entries for annotations that contribute to no
// object.
func (e *Envelope) PruneCover() {
	e.write()
	e.cover = slices.DeleteFunc(e.cover, func(c coverEntry) bool { return !e.memberAnywhere(c.id) })
}

// Object returns the object of the named instance, or nil.
func (e *Envelope) Object(instance string) Object {
	if i, ok := e.find(instance); ok {
		return e.objs[i].obj
	}
	return nil
}

// NumObjects returns the number of objects; ObjectAt(i) for i below it
// walks them in instance-name order.
func (e *Envelope) NumObjects() int { return len(e.objs) }

// ObjectAt returns the i-th object in instance-name order and its
// instance's name.
func (e *Envelope) ObjectAt(i int) (instance string, obj Object) {
	return e.objs[i].name, e.objs[i].obj
}

// InstanceNames returns the instance names present, sorted.
func (e *Envelope) InstanceNames() []string {
	names := make([]string, len(e.objs))
	for i, o := range e.objs {
		names[i] = o.name
	}
	return names
}

// Annotations returns every contributing annotation id, sorted.
func (e *Envelope) Annotations() []annotation.ID { return idsOf(e.cover, coverID) }

// Equal reports whether two envelopes are semantically identical: same
// coverage and equal objects per instance. This is the comparison behind
// the plan-equivalence tests (E3).
func (e *Envelope) Equal(o *Envelope) bool {
	return slices.EqualFunc(e.cover, o.cover, func(x, y coverEntry) bool {
		return x.id == y.id && e.cmap.apply(x.cols) == o.cmap.apply(y.cols)
	}) && slices.EqualFunc(e.objs, o.objs, func(x, y namedObject) bool {
		return x.name == y.name && x.obj.Equal(y.obj)
	})
}

// Render formats the envelope's objects in instance-name order, one per
// line.
func (e *Envelope) Render() string {
	var b []byte
	for i, o := range e.objs {
		if i > 0 {
			b = append(b, '\n')
		}
		b = AppendRender(b, o.obj)
	}
	return string(b)
}

// ApproxBytes estimates the envelope's in-memory size (coverage plus all
// objects) for the E1 compression benchmarks.
func (e *Envelope) ApproxBytes() int {
	n := 16 * len(e.cover)
	for _, o := range e.objs {
		n += o.obj.ApproxBytes()
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
