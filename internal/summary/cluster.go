package summary

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// repCandidates is the number of representative candidates retained per
// group so that dropped representatives can be replaced without consulting
// the raw annotations.
const repCandidates = 3

// clusterObject summarizes a tuple's annotations as groups of similar
// content, reporting one elected representative per group — the paper's
// SimCluster-style objects.
//
// The object is deliberately compact (the E1 compression measurements rest
// on it): per member it retains only the annotation id; per group it keeps
// one pruned centroid vector and a short list of representative
// *candidates* (id, display preview, and similarity-to-centroid recorded at
// insertion time). That is enough for every query-time operation:
//
//   - Remove (projection curation) deletes members and re-elects the
//     representative — the next surviving candidate, or deterministically
//     the smallest surviving member id when every candidate dropped (the
//     paper's "A5 replacing the dropped A2" behaviour). The centroid is
//     left as recorded at maintenance time; it only steers maintenance-time
//     assignment and optional similarity-based merging, both tolerant of
//     that approximation.
//   - MergeFrom combines member-overlapping groups transitively (the
//     connected-component join of the partitions), which is independent
//     of merge order; candidate lists merge by taking the top candidates
//     of the union, which is likewise order-independent. These two facts
//     are what make summary propagation identical across equivalent plans
//     (the Theorem 1&2 property, experiment E3).
//
// The object is its groups' sorted member lists and nothing else: there is
// no member index. Contains binary-searches the lists, and MergeFrom finds
// the groups that share a member in one k-way pass over them.
type clusterObject struct {
	sharedFlag
	shown  presentation
	size   atomic.Pointer[int] // ApproxBytes, memoised while shared
	inst   *Instance
	groups []*clusterGroup
}

// repCandidate is one potential representative retained with its preview.
type repCandidate struct {
	id      annotation.ID
	preview string
	sim     float64
}

// clusterGroup is the unit of copy-on-write in a cluster object: once
// latched shared (by Clone, or by a MergeFrom adopting it) it is immutable,
// and ownGroup replaces it with a private copy before any change. A shared
// group memoises its label and its size the way a shared object memoises
// its presentation, so every object holding it, an unshared accumulator
// included, reuses them.
type clusterGroup struct {
	// members is the group's annotation ids, sorted ascending: the list
	// Elements hands out. It is only ever extended at its tail in place;
	// any other change writes a new list, so a list once handed out, or
	// shared with a private copy of the group, never changes.
	members    []annotation.ID
	candidates []repCandidate // sorted by (sim desc, id asc), len ≤ repCandidates
	centroid   textmining.Vector
	rep        annotation.ID
	repPreview string
	// plain is isPlain(repPreview), derived by elect and never encoded.
	plain bool
	// min is the smallest member id: the canonical group sort key.
	min annotation.ID
	sharedFlag
	label atomic.Pointer[string]
	size  atomic.Pointer[int]
}

func newClusterObject(in *Instance) *clusterObject {
	return &clusterObject{inst: in}
}

// addCandidate inserts c into the sorted candidate list, keeping the top
// repCandidates entries.
func (g *clusterGroup) addCandidate(c repCandidate) {
	g.candidates = topCandidates(append(g.candidates, c))
}

// topCandidates sorts cs in place, drops repeated ids and returns the top
// repCandidates entries. The top of a union is the top of its parts' tops,
// so callers trim as they append and cs stays short. The scan for repeats
// compares each entry with at most repCandidates kept ones: no map.
func topCandidates(cs []repCandidate) []repCandidate {
	slices.SortFunc(cs, func(a, b repCandidate) int {
		return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.id, b.id))
	})
	out := cs[:0]
	for _, c := range cs {
		if len(out) == repCandidates {
			break
		}
		if !slices.ContainsFunc(out, func(o repCandidate) bool { return o.id == c.id }) {
			out = append(out, c)
		}
	}
	return out
}

// insert makes id, which g does not hold, a member of g: appended when it
// sorts last, else inserted into a new list.
func (g *clusterGroup) insert(id annotation.ID) {
	i, _ := slices.BinarySearch(g.members, id)
	if i == len(g.members) {
		g.members = append(g.members, id)
	} else {
		g.members = slices.Insert(slices.Clip(g.members), i, id)
	}
	g.min = g.members[0]
}

// holds reports whether id is a member of g.
func (g *clusterGroup) holds(id annotation.ID) bool {
	_, ok := slices.BinarySearch(g.members, id)
	return ok
}

// elect drops g's candidates that are no longer its members and elects the
// representative: the best surviving candidate, or the smallest member id
// (with a placeholder preview) when every candidate was curated away. Must
// be called after any membership change.
func elect(g *clusterGroup) {
	g.candidates = slices.DeleteFunc(g.candidates, func(k repCandidate) bool { return !g.holds(k.id) })
	if len(g.candidates) > 0 {
		g.rep, g.repPreview = g.candidates[0].id, g.candidates[0].preview
		g.plain = isPlain(g.repPreview)
		return
	}
	g.rep = g.min
	g.repPreview, g.plain = fmt.Sprintf("(annotation %d)", g.rep), true
}

// Instance implements Object.
func (c *clusterObject) Instance() *Instance { return c.inst }

// Contains implements Object.
func (c *clusterObject) Contains(id annotation.ID) bool {
	return slices.ContainsFunc(c.groups, func(g *clusterGroup) bool { return g.holds(id) })
}

// Add implements Object: online stream clustering in the style of the
// paper's ref [23] — the annotation joins the most similar existing group
// when its centroid similarity reaches the instance threshold, otherwise it
// founds a new group. The digest's vector updates the group centroid and is
// then discarded; only the member id (and possibly a representative
// candidacy) is retained.
func (c *clusterObject) Add(d Digest) {
	if c.Contains(d.Ann) {
		return
	}
	var best *clusterGroup
	bestSim := 0.0
	for _, g := range c.sortedGroups() {
		sim := textmining.Cosine(g.centroid, d.Vector)
		if sim >= c.inst.SimThreshold && sim > bestSim+1e-12 {
			best, bestSim = g, sim
		}
	}
	if best == nil {
		best = &clusterGroup{centroid: textmining.NewVector()}
		c.groups = append(c.groups, best)
	} else {
		best = c.ownGroup(best)
	}
	best.centroid.Add(d.Vector)
	best.centroid.Prune(c.inst.CentroidTerms * 2)
	sim := textmining.Cosine(best.centroid, d.Vector)
	best.insert(d.Ann)
	best.addCandidate(repCandidate{id: d.Ann, preview: d.Preview, sim: sim})
	elect(best)
}

// Remove implements Object: drops members, re-elects representatives, and
// discards emptied groups. Groups are not re-split — projection curates,
// it does not re-cluster (§2.1).
func (c *clusterObject) Remove(ids []annotation.ID) Object {
	var kept [][]annotation.ID // per group, allocated at the first hit
	left := 0
	for i, g := range c.groups {
		k := without(g.members, ids, idOf, false)
		if len(k) != len(g.members) && kept == nil {
			kept = make([][]annotation.ID, len(c.groups))
		}
		if kept != nil {
			kept[i] = k
		}
		left += len(k)
	}
	switch {
	case kept == nil:
		return c
	case c.isShared() && left == 0:
		return c.inst.NewObject()
	case c.isShared():
		c = c.Clone().(*clusterObject)
	}
	for i, g := range c.groups {
		if kept[i] == nil || len(kept[i]) == len(g.members) {
			continue
		}
		g = c.ownGroup(g)
		if g.members = kept[i]; len(g.members) > 0 {
			g.min = g.members[0]
			elect(g)
		}
	}
	c.groups = slices.DeleteFunc(c.groups, func(g *clusterGroup) bool { return len(g.members) == 0 })
	return c
}

// MergeFrom implements Object: groups from any side that share a member
// annotation are combined, including transitively, so the result is the
// connected-component join of the partitions and independent of merge
// order. It is one pass over all inputs (see join). When the instance sets
// MergeBySimilarity, non-overlapping incoming groups whose centroid is
// close enough to an existing group are also combined (the Figure 2 A1+B5
// behaviour; best-effort under plan reordering, see the type comment):
// that depends on the order the groups meet, so the inputs are then folded
// in one after another.
func (c *clusterObject) MergeFrom(others ...Object) Object {
	objs := make([]*clusterObject, 1, len(others)+1)
	objs[0] = c
	for _, other := range others {
		o, ok := other.(*clusterObject)
		if !ok || o.inst.Name != c.inst.Name {
			panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", c.inst.Name))
		}
		objs = append(objs, o)
	}
	if c.inst.MergeBySimilarity {
		if c.isShared() {
			c = c.Clone().(*clusterObject)
		}
		for _, o := range objs[1:] {
			c.fold(o)
		}
		return c
	}
	groups := join(objs, !c.isShared())
	if c.isShared() {
		return &clusterObject{inst: c.inst, groups: groups}
	}
	c.groups = groups
	return c
}

// join returns the connected-component join of the objects' groups. One
// k-way pass over every group's member list (kwayMerge) unions, by
// union-find, the groups that yield the same id. A group alone in its
// component is adopted as is: latched shared, unless it is one of the first
// object's and ownFirst is set. The groups of a larger component are fused
// (see fuse) in ascending order of their smallest member, and a group adds
// its centroid only if it brings an id no earlier object holds. Objects
// whose id ranges are disjoint share no member and skip the pass, which
// would step through them one id at a time: an object's groups interleave.
func join(objs []*clusterObject, ownFirst bool) []*clusterGroup {
	n := 0
	for _, o := range objs {
		n += len(o.groups)
	}
	gs := make([]*clusterGroup, 0, n)
	for _, o := range objs {
		gs = append(gs, o.groups...)
	}
	adopt := func(i int32) *clusterGroup {
		if int(i) >= len(objs[0].groups) || !ownFirst {
			gs[i].share()
		}
		return gs[i]
	}
	var brings []bool  // holds an id no earlier object holds
	var parent []int32 // union-find forest, made at the first shared id
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	if !disjoint(objs) {
		lists := make([][]annotation.ID, n)
		for i, g := range gs {
			lists[i] = g.members
		}
		brings = make([]bool, n)
		kwayMerge(lists, idOf,
			func(i int, _ []annotation.ID) { brings[i] = true },
			func(i, j int, _ annotation.ID) {
				if parent == nil {
					parent = make([]int32, n)
					for k := range parent {
						parent[k] = int32(k)
					}
				}
				if a, b := find(int32(i)), find(int32(j)); a != b {
					parent[max(a, b)] = min(a, b)
				}
			})
	}
	if parent == nil { // every group alone in its component
		for i := range gs {
			adopt(int32(i))
		}
		return gs
	}
	// Components in index order of their root, each's groups in
	// ascending order of their smallest member.
	order := make([]int32, n)
	comps := 0
	for i := range order {
		order[i], parent[i] = int32(i), find(int32(i))
		if parent[i] == int32(i) {
			comps++
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(parent[a], parent[b]), byMinID(gs[a], gs[b]), cmp.Compare(a, b))
	})
	out := make([]*clusterGroup, 0, comps)
	var part []*clusterGroup
	var partBrings []bool
	var cands []repCandidate
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && parent[order[hi]] == parent[order[lo]] {
			hi++
		}
		if hi-lo == 1 {
			out = append(out, adopt(order[lo]))
		} else {
			part, partBrings = part[:0], partBrings[:0]
			for _, i := range order[lo:hi] {
				part = append(part, gs[i])
				partBrings = append(partBrings, brings[i])
			}
			var g *clusterGroup
			g, cands = fuse(part, partBrings, cands[:0])
			out = append(out, g)
		}
		lo = hi
	}
	return out
}

// disjoint reports whether the objects' id ranges, from smallest to
// largest member, are disjoint, so that no two objects share a member.
func disjoint(objs []*clusterObject) bool {
	type span struct{ lo, hi annotation.ID }
	spans := make([]span, 0, len(objs))
	for _, o := range objs {
		if len(o.groups) == 0 {
			continue
		}
		sp := span{o.groups[0].min, 0}
		for _, g := range o.groups {
			sp.lo, sp.hi = min(sp.lo, g.min), max(sp.hi, g.members[len(g.members)-1])
		}
		spans = append(spans, sp)
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo <= spans[i-1].hi {
			return false
		}
	}
	return true
}

// fuse returns a new group of the members of gs, which are in ascending
// order of their smallest member. Its centroid sums, in that order, the
// centroids of the groups brings marks (every group when brings is nil).
// Its candidates are the top repCandidates of theirs, trimmed in buf after
// each group's and copied out of it; fuse returns buf for reuse.
func fuse(gs []*clusterGroup, brings []bool, buf []repCandidate) (*clusterGroup, []repCandidate) {
	lists := make([][]annotation.ID, len(gs))
	fused := &clusterGroup{}
	for i, g := range gs {
		lists[i] = g.members
		switch {
		case brings != nil && !brings[i]:
		case fused.centroid == nil:
			fused.centroid = g.centroid.Clone()
		default:
			fused.centroid.Add(g.centroid)
		}
		if buf = append(buf, g.candidates...); len(buf) > repCandidates {
			buf = topCandidates(buf)
		}
	}
	if fused.centroid == nil {
		fused.centroid = textmining.NewVector()
	}
	fused.members = mergeSorted(lists, idOf, nil)
	fused.min = fused.members[0]
	fused.candidates = slices.Clone(topCandidates(buf))
	elect(fused)
	return fused, buf[:0]
}

// fold merges o into c one incoming group at a time, in canonical order,
// the order MergeBySimilarity depends on: a group is fused with every group
// of c it shares a member with, else joins the group of c whose centroid is
// most similar at the instance threshold or above, else is adopted shared.
// It adds its centroid to the group it joins only if it brings a member.
func (c *clusterObject) fold(o *clusterObject) {
	var overlap []*clusterGroup // reused across incoming groups
	for _, og := range o.sortedGroups() {
		overlap = overlap[:0]
		for _, g := range c.groups {
			if slices.ContainsFunc(og.members, g.holds) {
				overlap = append(overlap, g)
			}
		}
		var target *clusterGroup
		if len(overlap) > 0 {
			target = c.combineGroups(overlap)
		} else {
			bestSim := 0.0
			for _, g := range c.sortedGroups() {
				sim := textmining.Cosine(g.centroid, og.centroid)
				if sim >= c.inst.SimThreshold && sim > bestSim+1e-12 {
					target, bestSim = g, sim
				}
			}
		}
		if target == nil {
			og.share()
			c.groups = append(c.groups, og)
			continue
		}
		target = c.ownGroup(target)
		members := mergeSorted([][]annotation.ID{target.members, og.members}, idOf, nil)
		if len(members) > len(target.members) {
			target.centroid.Add(og.centroid)
		}
		target.members, target.min = members, members[0]
		target.candidates = topCandidates(append(target.candidates, og.candidates...))
		elect(target)
	}
}

// combineGroups replaces c's groups that an incoming group bridges by
// their fusion and returns it.
func (c *clusterObject) combineGroups(groups []*clusterGroup) *clusterGroup {
	if len(groups) == 1 {
		return groups[0]
	}
	slices.SortFunc(groups, byMinID)
	target, _ := fuse(groups, nil, nil)
	c.groups = slices.DeleteFunc(c.groups, func(g *clusterGroup) bool { return slices.Contains(groups, g) })
	c.groups = append(c.groups, target)
	return target
}

// Clone implements Object: a new group list over the same groups, which
// both objects then hold shared.
func (c *clusterObject) Clone() Object {
	for _, g := range c.groups {
		g.share()
	}
	return &clusterObject{inst: c.inst, groups: slices.Clone(c.groups)}
}

// ownGroup returns g ready to be changed in place: a shared group is first
// replaced, in the group list, by a private copy. The copy starts on g's
// member list, capped so that its first append copies.
func (c *clusterObject) ownGroup(g *clusterGroup) *clusterGroup {
	if !g.isShared() {
		return g
	}
	cp := &clusterGroup{
		members:    slices.Clip(g.members),
		candidates: slices.Clone(g.candidates),
		centroid:   g.centroid.Clone(),
		rep:        g.rep,
		repPreview: g.repPreview,
		plain:      g.plain,
		min:        g.min,
	}
	c.groups[slices.Index(c.groups, g)] = cp
	return cp
}

// sortedGroups returns the groups in canonical order (ascending minimum
// member id) — the order used for rendering and 1-based zoom indexes.
func (c *clusterObject) sortedGroups() []*clusterGroup {
	gs := slices.Clone(c.groups)
	slices.SortFunc(gs, byMinID)
	return gs
}

func byMinID(a, b *clusterGroup) int { return cmp.Compare(a.min, b.min) }

// Members implements Object: the groups' lists merged.
func (c *clusterObject) Members() []annotation.ID {
	lists := make([][]annotation.ID, len(c.groups))
	for i, g := range c.groups {
		lists[i] = g.members
	}
	return mergeSorted(lists, idOf, nil)
}

// Len implements Object.
func (c *clusterObject) Len() int {
	n := 0
	for _, g := range c.groups {
		n += len(g.members)
	}
	return n
}

// Groups returns the number of groups.
func (c *clusterObject) Groups() int { return len(c.groups) }

// Representatives returns the representative annotation id of each group in
// canonical order.
func (c *clusterObject) Representatives() []annotation.ID {
	gs := c.sortedGroups()
	out := make([]annotation.ID, len(gs))
	for i, g := range gs {
		out[i] = g.rep
	}
	return out
}

// Elements implements Object: one element per group in canonical order,
// labelled by the representative's preview and resolving to the group's
// full membership (the paper's "retrieve all annotations in the cluster
// represented by annotation A2").
func (c *clusterObject) Elements() []Element {
	return memoised(&c.shown.elems, c.isShared(), c.elements)
}

func (c *clusterObject) elements() []Element {
	gs := c.sortedGroups()
	out := make([]Element, len(gs))
	for i, g := range gs {
		out[i] = Element{Label: g.displayLabel(), IDs: slices.Clip(g.members)}
	}
	return out
}

// displayLabel returns the group's display label, e.g.
// `"size seems wrong" ×3`.
func (g *clusterGroup) displayLabel() string {
	return memoised(&g.label, g.isShared(), func() string { return string(g.appendLabel(nil)) })
}

func (g *clusterGroup) appendLabel(dst []byte) []byte {
	dst = appendPlainOrQuoted(dst, g.repPreview, g.plain)
	dst = append(dst, " ×"...)
	return strconv.AppendInt(dst, int64(len(g.members)), 10)
}

// Zoom implements Object.
func (c *clusterObject) Zoom(index int) ([]annotation.ID, error) { return zoom(c, index) }

// Render implements Object, e.g.
// `SimCluster {[A12 "found eating stonewort…" ×5] [A3 "size seems wrong" ×1]}`.
func (c *clusterObject) Render() string { return rendered(&c.shown, c) }

func (c *clusterObject) appendRender(dst []byte) []byte {
	dst = append(dst, c.inst.Name...)
	dst = append(dst, " {"...)
	for i, g := range c.sortedGroups() {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, "[A"...)
		dst = strconv.AppendUint(dst, uint64(g.rep), 10)
		dst = append(dst, ' ')
		if g.isShared() {
			dst = append(dst, g.displayLabel()...)
		} else {
			dst = g.appendLabel(dst)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// ApproxBytes implements Object. Walking every centroid is the cost, so a
// shared object, and each shared group, counts once.
func (c *clusterObject) ApproxBytes() int {
	return memoised(&c.size, c.isShared(), c.approxBytes)
}

func (c *clusterObject) approxBytes() int {
	n := 0
	for _, g := range c.groups {
		n += memoised(&g.size, g.isShared(), g.approxBytes)
	}
	return n
}

func (g *clusterGroup) approxBytes() int {
	n := 8 + 8*len(g.members) // rep + member ids
	for _, cand := range g.candidates {
		n += 16 + len(cand.preview)
	}
	for t := range g.centroid {
		n += len(t) + 8
	}
	return n
}

// Equal implements Object: identical grouping of identical members with
// identical representatives.
func (c *clusterObject) Equal(other Object) bool {
	o, ok := other.(*clusterObject)
	if !ok || o.inst.Name != c.inst.Name {
		return false
	}
	ga, gb := c.sortedGroups(), o.sortedGroups()
	if len(ga) != len(gb) {
		return false
	}
	for i := range ga {
		if ga[i].rep != gb[i].rep || !slices.Equal(ga[i].members, gb[i].members) {
			return false
		}
	}
	return true
}
